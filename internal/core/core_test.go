package core_test

import (
	"testing"

	"polyprof/internal/core"
	"polyprof/internal/iiv"
	"polyprof/internal/obs"
	"polyprof/internal/trace"
	"polyprof/internal/workloads"

	"polyprof/internal/isa"
)

// TestPipelineInvariants: the two passes and the DDG agree on the
// dynamic operation counts, and profiling is deterministic.
func TestPipelineInvariants(t *testing.T) {
	for _, name := range []string{"example1", "example2", "backprop", "bfs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog := workloads.ByName(name).Build()
			p1, err := core.Run(prog, core.DefaultRunOptions())
			if err != nil {
				t.Fatal(err)
			}
			// Schedule tree and DDG both account every instruction.
			if p1.Tree.TotalOps() != p1.Stats.Ops {
				t.Errorf("tree ops %d != vm ops %d", p1.Tree.TotalOps(), p1.Stats.Ops)
			}
			if p1.DDG.TotalOps != p1.Stats.Ops {
				t.Errorf("ddg ops %d != vm ops %d", p1.DDG.TotalOps, p1.Stats.Ops)
			}
			if p1.DDG.MemOps != p1.Stats.MemOps {
				t.Errorf("ddg mem ops %d != vm mem ops %d", p1.DDG.MemOps, p1.Stats.MemOps)
			}
			// Statement counts sum to block executions <= ops.
			var stmtInstances uint64
			for _, s := range p1.DDG.Stmts {
				stmtInstances += s.Count
			}
			if stmtInstances == 0 || stmtInstances > p1.Stats.Ops {
				t.Errorf("statement instances %d out of range (ops %d)", stmtInstances, p1.Stats.Ops)
			}
			// Determinism: a second profile folds identically.
			p2, err := core.Run(prog, core.DefaultRunOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(p1.DDG.Stmts) != len(p2.DDG.Stmts) || len(p1.DDG.Deps) != len(p2.DDG.Deps) {
				t.Errorf("profiles differ across runs: %d/%d stmts, %d/%d deps",
					len(p1.DDG.Stmts), len(p2.DDG.Stmts), len(p1.DDG.Deps), len(p2.DDG.Deps))
			}
		})
	}
}

// TestInstrCountsConsistent: per-instruction counts sum to the
// statement's count times its instruction count.
func TestInstrCountsConsistent(t *testing.T) {
	prog := workloads.Example1()
	p, err := core.Run(prog, core.DefaultRunOptions())
	if err != nil {
		t.Fatal(err)
	}
	perStmt := map[int]uint64{}
	for _, in := range p.DDG.Instrs {
		perStmt[in.Stmt.ID] += in.Count
	}
	for _, s := range p.DDG.Stmts {
		blockLen := uint64(len(prog.Block(s.Block).Code))
		if perStmt[s.ID] != s.Count*blockLen {
			t.Errorf("stmt %d: instr events %d != count %d * block len %d",
				s.ID, perStmt[s.ID], s.Count, blockLen)
		}
	}
}

// TestPass2SinkReceivesEverything: a counting sink sees exactly the
// VM's operations with coords of the right arity.
func TestPass2SinkReceivesEverything(t *testing.T) {
	prog := workloads.Example1()
	st, err := core.AnalyzeStructure(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	_, stats, err := core.RunPass2(prog, st, sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sink.instrs != stats.Ops {
		t.Errorf("sink saw %d instrs, vm executed %d", sink.instrs, stats.Ops)
	}
	if sink.maxDepth != 2 {
		t.Errorf("max coord depth %d, want 2", sink.maxDepth)
	}
}

type countingSink struct {
	instrs   uint64
	maxDepth int
}

func (c *countingSink) OnControl(trace.ControlEvent) {}

func (c *countingSink) OnInstr(ctx iiv.Ctx, coords []int64, ev trace.InstrEvent, in *isa.Instr) {
	c.instrs++
	if len(coords) > c.maxDepth {
		c.maxDepth = len(coords)
	}
}

// TestFitterPathCounters profiles srad_v2 twice and checks the fold
// fitter's per-path sample counters: they repeat exactly, and every
// sample the fitters were fed is counted on exactly one path.
func TestFitterPathCounters(t *testing.T) {
	prog := workloads.ByName("srad_v2").Build()
	paths := []string{"fold.fitter.samples.solved", "fold.fitter.samples.int64", "fold.fitter.samples.wide"}
	var runs [2][3]uint64
	for i := range runs {
		reg := obs.NewRegistry()
		reg.SetEnabled(true)
		opts := core.DefaultRunOptions()
		opts.Obs = reg.Scope()
		if _, err := core.Run(prog, opts); err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for j, name := range paths {
			runs[i][j] = reg.Counter(name).Value()
			sum += runs[i][j]
		}
		if total := reg.Counter("fold.fitter.samples").Value(); sum != total || total == 0 {
			t.Errorf("run %d: path counts %v sum to %d, want the %d samples fed", i, runs[i], sum, total)
		}
	}
	if runs[0] != runs[1] {
		t.Errorf("path counts differ between runs: %v vs %v", runs[0], runs[1])
	}
	t.Logf("srad_v2 fitter samples: solved=%d int64=%d wide=%d", runs[0][0], runs[0][1], runs[0][2])
}
