package ddg_test

import (
	"testing"

	"polyprof/internal/cfg"
	"polyprof/internal/ddg"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
	"polyprof/internal/trace"
)

// TestContextRevisitAllocs: once a context has been seen, moving back
// into it allocates nothing — neither the control event (vector update,
// schedule-tree resolution, iteration count) nor resolving the
// statement and instruction vertices the next instruction runs as.
func TestContextRevisitAllocs(t *testing.T) {
	loop := &cfg.Loop{ID: 1}
	const (
		entry, header, body, callee, exit isa.BlockID = 0, 1, 2, 3, 4
	)
	v, tree := iiv.NewVector(), iiv.NewTree()
	var vt ddg.ContextTable
	ins := &isa.Instr{Op: isa.Add, Dst: 1, A: 2, B: 3}
	// control applies the loop events of one control event and resolves
	// the vertices of an instruction of the block it lands in.
	control := func(evs ...loopevents.Event) {
		for _, ev := range evs {
			v.Apply(ev)
			switch ev.Kind {
			case loopevents.EnterLoop, loopevents.IterateLoop:
				tree.NoteIteration(v)
			}
		}
		tree.Touch(v)
		ref := trace.InstrRef{Block: evs[len(evs)-1].Block, Index: 0}
		vt.Resolve(tree.Cur(), ref, ins, v.Depth())
	}
	jump := loopevents.Event{Kind: loopevents.LocalJump, Block: body}
	back := loopevents.Event{Kind: loopevents.LocalJump, Block: header}
	iterate := loopevents.Event{Kind: loopevents.IterateLoop, Loop: loop, Block: header}
	call := loopevents.Event{Kind: loopevents.CallFn, Block: callee}
	ret := loopevents.Event{Kind: loopevents.ReturnFn, Block: header}
	// Every step starts and ends in the loop header's context.
	steps := []struct {
		name string
		run  func()
	}{
		{"local jump", func() { control(jump); control(back) }},
		{"iterate", func() { control(iterate) }},
		{"call/return", func() { control(call); control(ret) }},
	}

	control(loopevents.Event{Kind: loopevents.CallFn, Block: entry})
	control(loopevents.Event{Kind: loopevents.EnterLoop, Loop: loop, Block: header})
	for i := 0; i < 3; i++ {
		for _, st := range steps {
			st.run()
		}
	}
	contexts := tree.Contexts()
	for _, st := range steps {
		if a := testing.AllocsPerRun(200, st.run); a != 0 {
			t.Errorf("%s into a seen context allocates %.1f per event", st.name, a)
		}
	}
	if got := tree.Contexts(); got != contexts {
		t.Errorf("revisits interned %d new contexts", got-contexts)
	}
	if a := testing.AllocsPerRun(200, func() {
		vt.Resolve(tree.Cur(), trace.InstrRef{Block: header, Index: 0}, ins, v.Depth())
	}); a != 0 {
		t.Errorf("resolving a seen vertex allocates %.1f per instruction", a)
	}
	control(loopevents.Event{Kind: loopevents.ExitLoop, Loop: loop, Block: exit})
	if v.Depth() != 0 {
		t.Fatalf("depth %d after the loop exit, want 0", v.Depth())
	}
	if got, want := tree.Cur().Key, v.Key(); got != want {
		t.Errorf("current context key %q, vector renders %q", got, want)
	}
}
