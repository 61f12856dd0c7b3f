package polyprof_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"polyprof"
	"polyprof/internal/feedback"
	"polyprof/internal/fold"
)

// streamReportJSON profiles a workload in streaming mode (epochs of
// epochEvents dynamic instructions) and renders the final report JSON.
// It returns the report bytes and, one per epoch boundary that fired,
// the provisional profile's report JSON.
func streamReportJSON(t *testing.T, name string, shards int, epochEvents uint64) ([]byte, [][]byte) {
	t.Helper()
	prog, err := polyprof.Workload(name)
	if err != nil {
		t.Fatal(err)
	}
	cm := polyprof.DefaultCostModel()
	var provisionals [][]byte
	rep, err := polyprof.ProfileWith(context.Background(), prog, polyprof.ProfileOptions{
		ParallelDDG: shards,
		EpochEvents: epochEvents,
		OnEpoch: func(ep *polyprof.Epoch) error {
			if ep.Provisional == nil {
				t.Errorf("%s: epoch %d has no provisional profile", name, ep.N)
				provisionals = append(provisionals, nil)
				return nil
			}
			prov, err := feedback.AnalyzeChecked(ep.Provisional)
			if err != nil {
				return fmt.Errorf("epoch %d provisional: %w", ep.N, err)
			}
			data, err := prov.JSON(&cm)
			if err != nil {
				return fmt.Errorf("epoch %d provisional: %w", ep.N, err)
			}
			provisionals = append(provisionals, data)
			return nil
		},
	})
	if err != nil {
		t.Fatalf("%s shards=%d epochs=%d: %v", name, shards, epochEvents, err)
	}
	data, err := rep.JSON(&cm)
	if err != nil {
		t.Fatal(err)
	}
	return data, provisionals
}

// TestStreamingEquivalence: a streaming run's FINAL report is
// byte-for-byte identical to the buffered one — with the sequential
// builder and with the sharded parallel engine.  Provisional folding
// at every boundary must not perturb the live state (the clone carries
// no budget and a detached registry), and the sharded engine's
// provisional report at every epoch is byte-identical to the
// sequential builder's at the same epoch.
//
// The default run covers the fast workload subset; the dedicated CI
// leg sets POLYPROF_STREAM_EXHAUSTIVE=1 to cover every bundled
// workload (the full-length case studies profile for minutes each,
// which would blow the default suite's timeout).
func TestStreamingEquivalence(t *testing.T) {
	defer fold.SetOwnershipChecks(fold.SetOwnershipChecks(true))
	var names []string
	switch {
	case testing.Short():
		names = []string{"backprop", "hotspot", "example1"}
	case os.Getenv("POLYPROF_STREAM_EXHAUSTIVE") != "":
		names = polyprof.Workloads()
	default:
		for _, n := range polyprof.Workloads() {
			if fastWorkloads[n] {
				names = append(names, n)
			}
		}
	}
	totalEpochs := 0
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			want := reportJSON(t, name, 0)
			// ~4 epochs per workload: enough boundaries to exercise the
			// provisional fold without dominating the suite's runtime.
			prog, err := polyprof.Workload(name)
			if err != nil {
				t.Fatal(err)
			}
			exec, err := polyprof.ProfileExecution(prog)
			if err != nil {
				t.Fatal(err)
			}
			epochEvents := exec.Stats.Ops/4 + 1
			var seqProvisionals [][]byte
			for _, shards := range []int{0, 8} {
				got, provisionals := streamReportJSON(t, name, shards, epochEvents)
				totalEpochs += len(provisionals)
				if !bytes.Equal(want, got) {
					t.Errorf("shards=%d: streamed report differs from buffered (%d vs %d bytes)",
						shards, len(got), len(want))
					for i := 0; i < len(want) && i < len(got); i++ {
						if want[i] != got[i] {
							lo, hi := i-120, i+120
							if lo < 0 {
								lo = 0
							}
							if hi > len(want) {
								hi = len(want)
							}
							if hi > len(got) {
								hi = len(got)
							}
							t.Fatalf("first difference at byte %d:\nbuffered: %s\nstreamed: %s", i, want[lo:hi], got[lo:hi])
						}
					}
					t.FailNow()
				}
				if shards == 0 {
					seqProvisionals = provisionals
					continue
				}
				if len(provisionals) != len(seqProvisionals) {
					t.Fatalf("shards=%d: %d epochs, sequential run had %d", shards, len(provisionals), len(seqProvisionals))
				}
				for i, prov := range provisionals {
					if !bytes.Equal(seqProvisionals[i], prov) {
						t.Fatalf("shards=%d: epoch %d provisional report differs from sequential (%d vs %d bytes)",
							shards, i+1, len(prov), len(seqProvisionals[i]))
					}
				}
			}
		})
	}
	if totalEpochs == 0 {
		t.Fatal("no epoch boundary fired across any workload; streaming mode never engaged")
	}
}

// TestStreamingCheckpointResume: interrupting a streaming run and
// resuming from a mid-run checkpoint produces a final report
// byte-identical to an uninterrupted buffered run, and the resumed
// attempt demonstrably starts past event zero (its first epoch ordinal
// continues the checkpoint's).
func TestStreamingCheckpointResume(t *testing.T) {
	const name = "backprop"
	prog, err := polyprof.Workload(name)
	if err != nil {
		t.Fatal(err)
	}
	// Size epochs off the workload's real op count so the run always
	// crosses several boundaries.
	exec, err := polyprof.ProfileExecution(prog)
	if err != nil {
		t.Fatal(err)
	}
	epochEvents := exec.Stats.Ops / 8
	if epochEvents == 0 {
		t.Fatalf("workload %s too small (%d ops)", name, exec.Stats.Ops)
	}

	want := reportJSON(t, name, 0)

	type ckpt struct {
		n    uint64
		data []byte
	}
	var cks []ckpt
	if _, err := polyprof.ProfileWith(context.Background(), prog, polyprof.ProfileOptions{
		EpochEvents: epochEvents,
		OnEpoch: func(ep *polyprof.Epoch) error {
			if len(ep.Checkpoint) > 0 {
				cks = append(cks, ckpt{ep.N, append([]byte(nil), ep.Checkpoint...)})
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if len(cks) < 2 {
		t.Fatalf("want at least 2 checkpoints, got %d", len(cks))
	}

	mid := cks[len(cks)/2]
	ck, err := polyprof.DecodeCheckpoint(mid.data)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != mid.n {
		t.Fatalf("checkpoint epoch %d, want %d", ck.Epoch, mid.n)
	}
	if ck.Events == 0 {
		t.Fatal("mid-run checkpoint taken at event zero")
	}

	var firstEpoch uint64
	// Fresh program image: resume must not depend on any state the
	// interrupted attempt left behind.
	prog2, err := polyprof.Workload(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := polyprof.ProfileWith(context.Background(), prog2, polyprof.ProfileOptions{
		EpochEvents: epochEvents,
		Resume:      ck,
		OnEpoch: func(ep *polyprof.Epoch) error {
			if firstEpoch == 0 {
				firstEpoch = ep.N
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if firstEpoch != ck.Epoch+1 {
		t.Errorf("resumed run's first epoch = %d, want %d (continuation of checkpoint)", firstEpoch, ck.Epoch+1)
	}
	cm := polyprof.DefaultCostModel()
	got, err := rep.JSON(&cm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed report differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// streamChurnProgram builds the bounded-memory stress workload: iters
// sweeps over a region of phases*perPhase words, each sweep touching
// one phase slice (read-modify-write per element) and moving on.  A
// slice therefore goes untouched for phases-1 epochs between visits —
// exactly the access pattern whose shadow records streaming mode folds
// and releases at every boundary.
func streamChurnProgram(iters, phases, perPhase int64) *polyprof.Program {
	pb := polyprof.NewProgram("stream-churn")
	region := pb.Global("region", phases*perPhase)
	f := pb.Func("main", 0)
	base := f.IConst(region.Base)
	one := f.FConst(1.0)
	f.Loop("sweep", f.IConst(0), f.IConst(iters), 1, func(it polyprof.Reg) {
		slice := f.Mul(f.Mod(it, f.IConst(phases)), f.IConst(perPhase))
		f.Loop("elem", f.IConst(0), f.IConst(perPhase), 1, func(j polyprof.Reg) {
			idx := f.Add(slice, j)
			v := f.FLoadIdx(base, idx, 0)
			f.FStoreIdx(base, idx, 0, f.FAdd(v, one))
		})
	})
	f.Halt()
	pb.SetMain(f)
	return pb.MustBuild()
}

// TestStreamingBoundedMemory: a streaming run whose cumulative shadow
// traffic is >= 100x the configured ceiling completes without ever
// tripping the budget — fold-and-release at epoch boundaries keeps the
// live footprint under the limit for arbitrarily long traces, where a
// buffered run would degrade to coarse tracking.
func TestStreamingBoundedMemory(t *testing.T) {
	// 16 phase slices of 128 words: the buffered builder's footprint
	// (dense base tables + one record pair per distinct address) lands
	// well above the ceiling, while streaming only ever keeps the base
	// tables plus a couple of slices' records live.
	iters, phases, perPhase := int64(2400), int64(16), int64(128)
	if testing.Short() {
		iters = 400
	}
	prog := streamChurnProgram(iters, phases, perPhase)
	exec, err := polyprof.ProfileExecution(prog)
	if err != nil {
		t.Fatal(err)
	}
	// One epoch per sweep: a slice's records go stale (and are
	// released) a few epochs after each visit.
	epochEvents := exec.Stats.Ops / uint64(iters)

	const limit = 256 << 10
	var released uint64
	var epochs int
	rep, err := polyprof.ProfileWith(context.Background(), prog, polyprof.ProfileOptions{
		Limits:      polyprof.BudgetLimits{MaxShadowBytes: limit},
		EpochEvents: epochEvents,
		OnEpoch: func(ep *polyprof.Epoch) error {
			released += ep.ReleasedBytes
			epochs++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Profile.DDG.Degraded != nil {
		t.Fatalf("streaming run degraded despite fold-and-release: %+v", rep.Profile.DDG.Degraded)
	}
	factor := released / limit
	t.Logf("epochs=%d released=%d bytes (%dx the %d-byte ceiling)", epochs, released, factor, uint64(limit))
	if !testing.Short() && factor < 100 {
		t.Fatalf("cumulative released shadow bytes %d < 100x the %d-byte ceiling; churn workload too small", released, uint64(limit))
	}
	if testing.Short() && released == 0 {
		t.Fatal("no shadow bytes released; streaming release never engaged")
	}

	// The same trace under the same ceiling WITHOUT streaming must
	// degrade — otherwise this test isn't demonstrating anything.
	bufRep, err := polyprof.ProfileWith(context.Background(), prog, polyprof.ProfileOptions{
		Limits: polyprof.BudgetLimits{MaxShadowBytes: limit},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bufRep.Profile.DDG.Degraded == nil {
		t.Fatal("buffered run under the same ceiling did not degrade; ceiling too generous for the churn workload")
	}
}
