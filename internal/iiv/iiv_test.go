package iiv_test

import (
	"reflect"
	"strings"
	"testing"

	"polyprof/internal/core"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/trace"
	"polyprof/internal/workloads"
)

// storeSink records the (context, coords) pairs of every Store executed
// in a named block.
type storeSink struct {
	prog      *isa.Program
	blockName string
	ctxs      []string
	coords    [][]int64
}

func (s *storeSink) OnControl(trace.ControlEvent) {}

func (s *storeSink) OnInstr(ctx iiv.Ctx, coords []int64, ev trace.InstrEvent, in *isa.Instr) {
	if !in.Op.IsMemWrite() {
		return
	}
	if s.prog.Block(ev.Ref.Block).Name != s.blockName {
		return
	}
	s.ctxs = append(s.ctxs, ctx.Key)
	s.coords = append(s.coords, append([]int64(nil), coords...))
}

func profileStores(t *testing.T, prog *isa.Program, blockName string) *storeSink {
	t.Helper()
	st, err := core.AnalyzeStructure(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	sink := &storeSink{prog: prog, blockName: blockName}
	if _, _, err := core.RunPass2(prog, st, sink, nil); err != nil {
		t.Fatal(err)
	}
	return sink
}

// TestFig3Example1Trace reproduces Fig. 3d: the store in B's loop body,
// reached through A's loop L1 calling B with its loop L2, must carry
// two-dimensional IIV coordinates enumerating (i, j) in lexicographic
// order, all under a single unified interprocedural context.
func TestFig3Example1Trace(t *testing.T) {
	prog := workloads.Example1()
	sink := profileStores(t, prog, "B.L2.body")

	want := [][]int64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	if !reflect.DeepEqual(sink.coords, want) {
		t.Fatalf("coords = %v, want %v", sink.coords, want)
	}
	for _, c := range sink.ctxs {
		if c != sink.ctxs[0] {
			t.Fatalf("contexts differ across iterations: %q vs %q", sink.ctxs[0], c)
		}
	}
}

// TestFig3Example2Recursion reproduces Fig. 3i/3k: the helper C called
// underneath the recursive component of B gets a single recursion
// dimension with induction values 0,1,2 — the representation depth does
// not grow with the call stack.  The block after the recursive call
// (the paper's B5) iterates at values 3,4: it belongs to the recursive
// loop via the return-driven increments.
func TestFig3Example2Recursion(t *testing.T) {
	prog := workloads.Example2()

	// C's store: called once from D (outside recursion, depth 0) and
	// three times under B's recursion (depth 1, IVs 0..2).
	cStores := profileStores(t, prog, "C.entry")
	byDepth := map[int][][]int64{}
	byCtx := map[string]int{}
	for i, c := range cStores.coords {
		byDepth[len(c)] = append(byDepth[len(c)], c)
		byCtx[cStores.ctxs[i]]++
	}
	if got := byDepth[0]; len(got) != 1 {
		t.Errorf("calls outside recursion: got %d coords %v, want 1", len(got), got)
	}
	wantRec := [][]int64{{0}, {1}, {2}}
	if !reflect.DeepEqual(byDepth[1], wantRec) {
		t.Errorf("recursive calls coords = %v, want %v", byDepth[1], wantRec)
	}
	if len(byCtx) != 2 {
		t.Errorf("want exactly 2 distinct contexts for C's store, got %d: %v", len(byCtx), byCtx)
	}

	// The continuation store after the recursive call ("B5"): executed
	// once per unwound recursive call, at IVs 3 and 4.
	b5 := profileStores(t, prog, "B.cont")
	wantB5 := [][]int64{{3}, {4}}
	if !reflect.DeepEqual(b5.coords, wantB5) {
		t.Errorf("B5 coords = %v, want %v (folded domain {3 <= i <= 4})", b5.coords, wantB5)
	}
}

// TestScheduleTreeWeights checks the dynamic schedule tree aggregates
// operation counts and loop iteration counts.
func TestScheduleTreeWeights(t *testing.T) {
	prog := workloads.Example1()
	st, err := core.AnalyzeStructure(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, stats, err := core.RunPass2(prog, st, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Tree.TotalOps() != stats.Ops {
		t.Errorf("tree total %d != vm ops %d", p2.Tree.TotalOps(), stats.Ops)
	}

	// Find the L1 and L2 loop nodes and check iteration counts.  A
	// 2-trip while-shaped loop enters its header 3 times (the last
	// evaluation exits), so the outer loop records 3 and the inner loop
	// 3 per outer body execution = 6.  Statement domains are unaffected:
	// they come from folding the body coordinates (0..1).
	var iters []uint64
	p2.Tree.Walk(func(n *iiv.TreeNode, depth int) {
		if !n.IsRoot() && n.Elem.IsLoop() {
			iters = append(iters, n.Iters)
		}
	})
	if !reflect.DeepEqual(iters, []uint64{3, 6}) {
		t.Errorf("loop iteration counts = %v, want [3 6]", iters)
	}

	// Rendering must mention both loops.
	out := p2.Tree.Render(iiv.ProgramNamer(prog), 0)
	if out == "" {
		t.Fatal("empty tree rendering")
	}
	for _, want := range []string{"L", "iters=3", "iters=6"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
