package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

// testPrograms keeps the benchmark's own tests to seconds.
var testPrograms = []string{"example1", "example2", "trisolv"}

func testChecker(t *testing.T) *checker {
	t.Helper()
	c, err := newChecker(findRepoFile("table5.txt"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDecomposeSubtractsSelfTime(t *testing.T) {
	c := testChecker(t)
	sets, _, err := buildPrograms(testPrograms, 1)
	if err != nil {
		t.Fatal(err)
	}
	progs := sets[0]
	ls := &layerSums{}
	for _, name := range testPrograms {
		if err := decompose(context.Background(), name, progs[name], true, c, ls); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	o := newOutcome()
	ls.setLayers(o, true)
	for _, name := range perLayer {
		m, ok := o.metrics[name]
		if !ok {
			t.Errorf("per-layer metric %s missing", name)
			continue
		}
		if m.Value < 0 && name != "bench.trace_overhead_frac" {
			t.Errorf("%s = %v, want non-negative", name, m.Value)
		}
	}
	// Self time is the enclosing span minus the child span: the
	// dependence builder's share can never exceed its pass-2 span, and
	// the IIV share can never exceed the hook-less pass 2.
	if ddgSelf, span := o.metrics["ddg.pass2_self_s"].Value, ls.spans.total("pass2-ddg"); ddgSelf > span {
		t.Errorf("ddg self %v exceeds its span %v", ddgSelf, span)
	}
	if iivSelf, span := o.metrics["iiv.pass2_self_s"].Value, ls.spans.total("pass2-nil"); iivSelf > span {
		t.Errorf("iiv self %v exceeds its span %v", iivSelf, span)
	}
	var wantOps uint64
	for _, n := range testPrograms {
		wantOps += c.ref.Programs[n].Ops
	}
	if got := uint64(o.metrics["vm.ops"].Value); got != wantOps {
		t.Errorf("vm.ops = %d, want %d (the reports' total_ops)", got, wantOps)
	}
	if o.metrics["ddg.deps.emitted"].Value == 0 || o.metrics["ddg.events.mem"].Value == 0 {
		t.Error("dependence counters were not read back from the registry")
	}
}

func TestCheckerRejectsChangedReport(t *testing.T) {
	c := testChecker(t)
	sets, _, err := buildPrograms([]string{"trisolv"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	progs := sets[0]
	rep, opt, err := pipelineCall(context.Background(), progs["trisolv"], true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkCall(c, "trisolv", rep, opt); err != nil {
		t.Fatalf("reference check failed on an unchanged report: %v", err)
	}
	data, err := reportJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	// Re-indenting does not matter; content does.
	if _, err := c.checkReport("trisolv", []byte(strings.ReplaceAll(string(data), "\n  ", "\n\t"))); err != nil {
		t.Errorf("whitespace changed the digest: %v", err)
	}
	if _, err := c.checkReport("trisolv", []byte(strings.Replace(string(data), `"total_ops": 7555`, `"total_ops": 7556`, 1))); err == nil {
		t.Error("a changed report passed the reference check")
	}
	if _, err := c.checkReport("example1", data); err == nil {
		t.Error("trisolv's report passed as example1's")
	}
	opt.TileSize++
	if err := c.checkOptimize("trisolv", opt); err == nil {
		t.Error("a changed optimize report passed the reference check")
	}
}

func TestTable5CrossCheck(t *testing.T) {
	row := strings.Fields("nn                 43577      4740   71%  nn_openmp.c:20          100%    11%      0%         Y     RF     N    0%    58%     73%     73%  2D  2D  1D     58%  2     2      S")
	report := `{"total_ops": 43577, "mem_ops": 4740, "pct_affine": 0.71,
	  "region": {"code_ref": "nn_openmp.c:20", "pct_ops": 1, "interprocedural": true,
	    "components": 2, "fused_components": 2, "fusion": "S",
	    "metrics": {"pct_parallel_ops": 0, "pct_simd_ops": 0.58, "pct_reuse": 0.73, "pct_preuse": 0.73,
	      "loop_depth_src": 2, "loop_depth_bin": 2, "tile_depth": 1, "pct_tile_ops": 0.58, "skew": false}}}`
	if err := checkTable5("nn", row, []byte(report)); err != nil {
		t.Fatalf("matching row rejected: %v", err)
	}
	if err := checkTable5("nn", row, []byte(strings.Replace(report, `"tile_depth": 1`, `"tile_depth": 2`, 1))); err == nil {
		t.Error("a changed TlD column passed")
	}
	rows, err := loadTable5(findRepoFile("table5.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Errorf("table5.txt has %d Rodinia rows, want 19", len(rows))
	}
}

func TestJobLoopsOnSmallPrograms(t *testing.T) {
	c := testChecker(t)
	for _, lease := range []bool{false, true} {
		d, setup, err := setupDaemon(lease, testPrograms, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(setup.wall) != jobSetupReps || median(setup.wall) <= 0 {
			t.Errorf("lease=%v: set-up times %v", lease, setup.wall)
		}
		o := newOutcome()
		res, err := tracedLoop(d, 1, testPrograms, time.Second, c, o)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.stop(); err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 || len(res.fresh) == 0 || len(res.hits) == 0 {
			t.Fatalf("lease=%v: %d of %d failed (%v), %d fresh, %d hits",
				lease, o.failed, o.attempted, o.failures, len(res.fresh), len(res.hits))
		}
		for _, name := range []string{"serve.submit_p50_ms", "serve.get_ms", "jobstore.queue_wait_ms",
			"jobexec.attempt_ms", "jobexec.run_ms", "jobstore.fsync_ms", "jobstore.wal_records_per_job"} {
			if _, ok := o.metrics[name]; !ok {
				t.Errorf("lease=%v: %s missing", lease, name)
			}
		}
		_, claims := o.metrics["jobapi.claim_hit_frac"]
		if claims != lease {
			t.Errorf("lease=%v: jobapi.claim_hit_frac present=%v", lease, claims)
		}
	}
}
