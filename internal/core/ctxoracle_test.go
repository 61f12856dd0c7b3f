package core

import (
	"testing"

	"polyprof/internal/ddg"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
	"polyprof/internal/obs"
	"polyprof/internal/parddg"
	"polyprof/internal/trace"
	"polyprof/internal/workloads"
)

// ctxOracle is a pass-2 sink that checks every context handle against
// an independent rendering: it replays the raw control events through
// its own loop-event translator and iteration vector, recomputes
// Vector.Key() after each one, and compares it with the handle of every
// instruction that follows.  It also checks that the handle is a
// faithful intern — one key per ID and one ID per key — before
// forwarding to the sink under test (nil for none).
//
// The invariant under test is the one that lets the schedule tree stand
// in for the vector: a loop or component element always closes its
// dimension, so a flattened tree path determines the vector's
// dimensions and hence its key.
type ctxOracle struct {
	t     *testing.T
	inner InstrSink

	tr    *loopevents.Translator
	vec   *iiv.Vector
	key   string
	keyOf map[int]string
	idOf  map[string]int
	errs  int
}

func newCtxOracle(t *testing.T, prog *isa.Program, st *Structure, inner InstrSink) *ctxOracle {
	o := &ctxOracle{t: t, inner: inner, vec: iiv.NewVector(), keyOf: map[int]string{}, idOf: map[string]int{}}
	o.tr = loopevents.NewTranslator(prog, st.Forest, st.Comps, o.apply)
	return o
}

// resume rebinds the oracle's own translator and vector to a
// checkpoint, as the resumed pass 2 does with its own.
func (o *ctxOracle) resume(prog *isa.Program, st *Structure, ck *Checkpoint) error {
	v, err := iiv.RestoreVector(ck.Vector, iiv.NewElemResolver(st.Forest, st.Comps))
	if err != nil {
		return err
	}
	tr, err := loopevents.RestoreTranslator(prog, st.Forest, st.Comps, o.apply, ck.Translator)
	if err != nil {
		return err
	}
	o.vec, o.tr, o.key = v, tr, v.Key()
	return nil
}

func (o *ctxOracle) apply(e loopevents.Event) { o.vec.Apply(e) }

func (o *ctxOracle) OnControl(ev trace.ControlEvent) {
	if o.inner != nil {
		o.inner.OnControl(ev)
	}
	o.tr.Control(ev)
	o.key = o.vec.Key()
}

func (o *ctxOracle) check(ctx iiv.Ctx) {
	prevKey, seenID := o.keyOf[ctx.ID]
	prevID, seenKey := o.idOf[ctx.Key]
	if ctx.Key != o.key || seenID && prevKey != ctx.Key || seenKey && prevID != ctx.ID {
		if o.errs < 5 {
			o.t.Errorf("handle {%d %q}: vector key %q; ID seen before as %q, key seen before with ID %d",
				ctx.ID, ctx.Key, o.key, prevKey, prevID)
		}
		o.errs++
	}
	o.keyOf[ctx.ID], o.idOf[ctx.Key] = ctx.Key, ctx.ID
}

func (o *ctxOracle) OnInstr(ctx iiv.Ctx, coords []int64, ev trace.InstrEvent, in *isa.Instr) {
	o.check(ctx)
	if o.inner != nil {
		o.inner.OnInstr(ctx, coords, ev, in)
	}
}

// batchCtxOracle is the oracle for a batch-consuming sink, so pass 2
// drives it through the batched emission path.
type batchCtxOracle struct {
	*ctxOracle
	batch BatchSink
}

func (o batchCtxOracle) OnInstrBatch(ctx iiv.Ctx, coords []int64, evs []trace.InstrEvent, ins []*isa.Instr) {
	o.check(ctx)
	o.batch.OnInstrBatch(ctx, coords, evs, ins)
}

// checkLeaves asserts that the finished tree's leaves carry distinct
// IDs and distinct keys, and that they are the contexts the sink saw.
func checkLeaves(t *testing.T, tree *iiv.Tree, o *ctxOracle) {
	t.Helper()
	ids, keys := map[int]bool{}, map[string]bool{}
	var leaves uint64
	tree.Walk(func(n *iiv.TreeNode, _ int) {
		if n.CtxKey == "" {
			return
		}
		leaves++
		if ids[n.ID] || keys[n.CtxKey] {
			t.Errorf("leaf {%d %q} shares its ID or key with another leaf", n.ID, n.CtxKey)
		}
		ids[n.ID], keys[n.CtxKey] = true, true
		if k, ok := o.keyOf[n.ID]; ok && k != n.CtxKey {
			t.Errorf("leaf {%d %q}: the sink saw ID %d as %q", n.ID, n.CtxKey, n.ID, k)
		}
		if tree.NodeByCtx(n.CtxKey) != n {
			t.Errorf("leaf %q not indexed by its key", n.CtxKey)
		}
	})
	if leaves != tree.Contexts() {
		t.Errorf("tree has %d leaves, counted %d contexts", leaves, tree.Contexts())
	}
	for key := range o.idOf {
		if !keys[key] {
			t.Errorf("sink saw context %q that is no leaf of the tree", key)
		}
	}
}

// TestContextHandleOracle checks the handle-key correspondence on every
// bundled workload: for the IIV pass alone (buffered), with the
// sequential builder streamed in epochs and resumed from a mid-run
// checkpoint, and with the sharded engine's batched path.  -short keeps
// the IIV pass only.
func TestContextHandleOracle(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			prog := workloads.ByName(name).Build()
			st, err := analyzeStructure(prog, nil, obs.Scope{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			o := newCtxOracle(t, prog, st, nil)
			p, _, err := runPass2(prog, st, o, nil, obs.Scope{}, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkLeaves(t, p.Tree, o)
			if testing.Short() {
				return
			}

			opts := ddg.DefaultOptions()
			t.Run("streamed", func(t *testing.T) {
				b := ddg.NewBuilder(prog, opts)
				o := newCtxOracle(t, prog, st, b)
				var mid *Checkpoint
				ec := &epochConfig{events: st.Stats.Ops/4 + 1, builder: b, cb: func(ep *Epoch) error {
					if ep.N == 2 {
						var err error
						mid, err = DecodeCheckpoint(ep.Checkpoint)
						return err
					}
					return nil
				}}
				p, _, err := runPass2(prog, st, o, nil, obs.Scope{}, nil, nil, ec)
				if err != nil {
					t.Fatal(err)
				}
				checkLeaves(t, p.Tree, o)
				if mid == nil {
					t.Fatal("no checkpoint at epoch 2")
				}

				rb, err := ddg.RestoreBuilder(prog, opts, mid.DDG)
				if err != nil {
					t.Fatal(err)
				}
				ro := newCtxOracle(t, prog, st, rb)
				if err := ro.resume(prog, st, mid); err != nil {
					t.Fatal(err)
				}
				ec = &epochConfig{events: ec.events, builder: rb, resume: mid}
				rp, _, err := runPass2(prog, st, ro, nil, obs.Scope{}, nil, nil, ec)
				if err != nil {
					t.Fatal(err)
				}
				checkLeaves(t, rp.Tree, ro)
				if _, err := rb.FinishChecked(); err != nil {
					t.Fatal(err)
				}
			})
			t.Run("parddg", func(t *testing.T) {
				eng := parddg.NewEngine(prog, parddg.Options{Shards: 2, DDG: opts})
				defer eng.Close()
				o := newCtxOracle(t, prog, st, eng)
				p, _, err := runPass2(prog, st, batchCtxOracle{o, eng}, nil, obs.Scope{}, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkLeaves(t, p.Tree, o)
				if _, err := eng.FinishChecked(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
