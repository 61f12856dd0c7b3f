package ddg

import (
	"testing"

	"polyprof/internal/isa"
)

// TestBundleLookupAllocs: adding a dependence to an existing bundle
// allocates nothing, whether the destination's last-hit bundle matches
// or its incoming bundles are scanned, and every (source, kind) pair
// keeps exactly one bundle.
func TestBundleLookupAllocs(t *testing.T) {
	prog := &isa.Program{Funcs: []*isa.Func{{NumRegs: 1}}, MemWords: 1}
	b := NewBuilder(prog, DefaultOptions())
	const nsrc = 12
	dst := &Instr{ID: nsrc, Depth: 1}
	srcs := make([]*Instr, nsrc)
	for i := range srcs {
		srcs[i] = &Instr{ID: i, Depth: 1}
	}
	// Consumer coordinates rise with every dependence, and each label
	// is the consumer coordinate minus one: every bundle's stream folds
	// to one solved affine piece.
	var n int64
	feed := func(src *Instr, kind Kind) {
		n++
		b.AddDep(src, []int64{n - 1}, dst, []int64{n}, kind)
	}
	for round := 0; round < 20; round++ {
		for _, s := range srcs {
			feed(s, FlowMem)
			feed(s, Anti)
		}
	}
	if got, in := len(b.allDeps), len(b.in[dst.ID].deps); got != 2*nsrc || in != 2*nsrc {
		t.Fatalf("%d bundles, %d incoming to the destination; want %d", got, in, 2*nsrc)
	}
	if a := testing.AllocsPerRun(500, func() { feed(srcs[7], FlowMem) }); a != 0 {
		t.Errorf("addDep hitting the last bundle allocates %.1f", a)
	}
	k := 0
	if a := testing.AllocsPerRun(500, func() { k++; feed(srcs[k%nsrc], Kind(k/nsrc%2)*Anti) }); a != 0 {
		t.Errorf("addDep scanning the incoming bundles allocates %.1f", a)
	}
	if len(b.allDeps) != 2*nsrc {
		t.Fatalf("steady state created bundles: %d, want %d", len(b.allDeps), 2*nsrc)
	}
	for _, d := range b.allDeps {
		if d.Dst != dst || d.Count < 20 {
			t.Errorf("bundle %v: destination I%d, count %d", d, d.Dst.ID, d.Count)
		}
	}
}
