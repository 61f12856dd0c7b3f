// Command perfbench is polyprof's benchmark.  It runs one named
// workload for a fixed time, checks every output against reference
// digests, and prints its metrics: the end-to-end ones by default,
// the per-layer ones with --trace 1.  RATIONALE.md explains the
// workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fold-heavy --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is a
// JSON detail record with run metadata and every metric measured.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// endToEnd are the metrics --trace 0 reports on every workload.  They
// are in reference CPU-seconds (calib.go), which neither other guests
// on a shared host nor its drifting speed move; the CPU-time and
// wall-clock metrics go on the detail line beside them.
var endToEnd = []string{"setup_s", "ops_per_ref_cpu_s", "jobs_per_ref_cpu_s"}

// perLayer are the metrics --trace 1 reports on every workload.
var perLayer = []string{
	"vm.ns_per_op", "cfg.pass1_s", "iiv.pass2_self_s",
	"ddg.pass2_self_s", "ddg.ns_per_op", "ddg.self_frac",
	"ddg.alloc_bytes_per_op", "ddg.mallocs_per_op",
	"fold.finish_s", "sched.build_s", "feedback.analyze_s",
	"transform.optimize_s", "transform.verified_frac", "transform.refused",
	"parddg.pass2_s", "core.stream_pass2_s",
	"vm.ops", "ddg.events.mem", "ddg.deps.folded", "ddg.deps.emitted", "ddg.shadow.words",
	"bench.trace_overhead_frac",
}

// maxFailures bounds the failure messages a run keeps for its detail
// record.
const maxFailures = 8

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	notes             map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, notes: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(name string, v any) { o.notes[name] = v }

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.failures) < maxFailures {
		o.failures = append(o.failures, err.Error())
	}
}

// latency records the median of samples as <prefix>_p50_ms, notes its
// quartiles, and, when enough samples lie beyond some tail percentile,
// records <prefix>_tail_ms with that percentile and the sample count
// noted.
func (o *outcome) latency(prefix string, samples []float64) {
	o.note(prefix+"_samples", len(samples))
	if len(samples) == 0 {
		return
	}
	o.set(prefix+"_p50_ms", median(samples), "ms")
	q1, _, q3 := quartiles(samples)
	o.note(prefix+"_quartiles_ms", []float64{q1, q3})
	if p, v, ok := tail(samples); ok {
		o.set(prefix+"_tail_ms", v, "ms")
		o.note(prefix+"_tail_pct", p)
	}
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: fold-heavy, optimize-affine, jobs-local or jobs-lease")
	seed := fs.Int64("seed", 1, "workload seed: fixes the program draw and order and the job request stream")
	seconds := fs.Int("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	capture := fs.Bool("capture", false, "regenerate reference.json from the library and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *capture {
		if err := captureReference("reference.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	w, err := lookupWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	c, err := newChecker(findRepoFile("table5.txt"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	meta := newMeta(w, *seed, *seconds, *trace == 1)
	ctx := context.Background()
	cpu0 := cpuTimes()
	var o *outcome
	switch {
	case *trace == 1:
		o, err = runTraced(ctx, w, *seed, *seconds, c, &meta)
	case w.jobs:
		o, err = runJobs(w, *seed, *seconds, c, &meta)
	default:
		o, err = runPipeline(ctx, w, *seed, *seconds, c)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	o.note("cpu_steal_frac", stealFrac(cpu0, cpuTimes()))
	o.note("draw_digest", drawDigest(w, *seed))
	checked, off := c.table5Report()
	o.note("table5_checked", checked)
	o.note("table5_discrepancies", off)
	if err := emit(o, meta, want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// emit prints a human-readable summary, the JSON detail record, and
// the result line restricted to the contract's metric set.
func emit(o *outcome, meta runMeta, want []string) error {
	if o.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	o.note("fail_frac", float64(o.failed)/float64(o.attempted))
	o.note("fail_base", o.attempted)
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	fmt.Printf("%-28s %14.6g ratio (%d of %d failed)\n", "fail_frac", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	for _, f := range o.failures {
		fmt.Println("failure:", f)
	}
	if off, _ := o.notes["table5_discrepancies"].(map[string]string); len(off) > 0 {
		for _, msg := range off {
			fmt.Println("table5.txt discrepancy:", msg)
		}
	}
	detail := map[string]any{"meta": meta, "metrics": o.metrics, "notes": o.notes, "failures": o.failures}
	line, err := json.Marshal(map[string]any{"detail": detail})
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	out := map[string]metric{}
	for _, n := range want {
		m, ok := o.metrics[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	line, err = json.Marshal(map[string]any{
		"correct":   o.failed == 0,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
