// Package core wires the polyprof stages into the end-to-end pipeline
// of the paper's Fig. 1: a first instrumented run recovers the
// interprocedural control structure (dynamic CFGs, call graph,
// loop-nesting forest, recursive-component-set); a second instrumented
// run streams loop events through the dynamic interprocedural iteration
// vector, builds the dynamic schedule tree, and feeds every dynamic
// instruction to the dependence stage.
package core

import (
	"fmt"

	"polyprof/internal/budget"
	"polyprof/internal/cfg"
	"polyprof/internal/cg"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
	"polyprof/internal/progress"
	"polyprof/internal/trace"
	"polyprof/internal/vm"
)

// RecoverStage converts a panic inside a pipeline stage into an error
// and a failed span, so one hostile program or injected fault degrades
// a single run instead of killing the process.  Use as
//
//	defer sp.End()
//	defer core.RecoverStage(stage, sp, &err)
//
// (deferred after sp.End so it runs first and can fail the span).
// Error-valued panics — injected faults, budget aborts — are wrapped
// with %w so errors.As still classifies them.
func RecoverStage(stage string, sp *obs.Span, errp *error) {
	r := recover()
	if r == nil {
		return
	}
	var err error
	if e, ok := r.(error); ok {
		err = fmt.Errorf("panic in %s: %w", stage, e)
	} else {
		err = fmt.Errorf("panic in %s: %v", stage, r)
	}
	sp.Fail(err)
	*errp = err
	// A stage panic is an anomaly by definition: freeze the flight ring
	// (no-op while the recorder is disabled).  The panic is contained
	// here, so this is the only layer that still knows the stage.
	flight.Trigger("stage-panic", flight.TriggerInfo{Stage: stage, Detail: err.Error()})
}

// Structure is the result of pass 1 ("Instrumentation I"): the
// interprocedural control structure of one execution.
type Structure struct {
	CFG       *cfg.Graph
	Forest    *cfg.Forest
	CallGraph *cg.Graph
	Comps     *cg.ComponentSet
	Stats     vm.Stats
}

// AnalyzeStructure executes the program once under control-event
// instrumentation and derives its control structure, recording into the
// default registry.
func AnalyzeStructure(prog *isa.Program, initMem func([]uint64)) (*Structure, error) {
	return AnalyzeStructureScoped(prog, initMem, obs.Scope{}, nil)
}

// AnalyzeStructureScoped is AnalyzeStructure recording its stage span
// and VM counters into sc's registry, nested under sc's parent span,
// governed by bud (nil for unlimited).
func AnalyzeStructureScoped(prog *isa.Program, initMem func([]uint64), sc obs.Scope, bud *budget.Budget) (*Structure, error) {
	return analyzeStructure(prog, initMem, sc, bud, nil)
}

// analyzeStructure additionally publishes live progress into tr (nil
// for none).
func analyzeStructure(prog *isa.Program, initMem func([]uint64), sc obs.Scope, bud *budget.Budget, tr *progress.Tracker) (st *Structure, err error) {
	sp := sc.StartSpan("pass1-structure")
	defer sp.End()
	defer RecoverStage("pass1-structure", sp, &err)
	rec := cfg.NewRecorder(prog)
	m := vm.New(prog, rec)
	m.InitMem = initMem
	m.Obs = sc
	m.Budget = bud
	m.Progress = tr
	if err := m.Run(); err != nil {
		sp.Fail(err)
		return nil, err
	}
	sp.AddEvents(m.Stats().Ops)
	callGraph := cg.FromCallEdges(prog.Main, rec.CallEdges)
	return &Structure{
		CFG:       rec.G,
		Forest:    cfg.BuildForest(rec.G),
		CallGraph: callGraph,
		Comps:     cg.BuildComponents(callGraph),
		Stats:     m.Stats(),
	}, nil
}

// InstrSink receives, for every executed instruction, the statement
// context and iteration-vector coordinates assigned by the IIV stage.
// The dependence-graph builder implements it; tests use lightweight
// sinks.
type InstrSink interface {
	// OnControl sees raw control events (before loop-event translation),
	// so sinks can mirror the call stack for register dependence
	// tracking.
	OnControl(ev trace.ControlEvent)
	// OnInstr is called per dynamic instruction with the handle of the
	// current context and its coordinates.  coords is only valid during
	// the call and must not be modified.
	OnInstr(ctx iiv.Ctx, coords []int64, ev trace.InstrEvent, in *isa.Instr)
}

// BatchSink is an optional InstrSink extension: a sink that also
// implements OnInstrBatch receives instruction events in per-context
// batches (one context handle and coordinate vector shared by the whole
// batch, since the iteration vector only changes on control events).
// The sharded dependence engine implements it; Pass2 automatically
// drives such a sink through the VM's batched emission path.
type BatchSink interface {
	InstrSink
	// OnInstrBatch delivers a run of instruction events sharing one
	// context.  coords is only valid during the call and must not be
	// modified; evs[i] pairs with ins[i].
	OnInstrBatch(ctx iiv.Ctx, coords []int64, evs []trace.InstrEvent, ins []*isa.Instr)
}

// Pass2 is the second instrumentation pass: loop events, IIVs, schedule
// tree, and fan-out to an InstrSink.
type Pass2 struct {
	Vector *iiv.Vector
	Tree   *iiv.Tree

	tr   *loopevents.Translator
	sink InstrSink

	// ctx and coords describe the current context; both only change on
	// control events, so sync refreshes them there, not per instruction.
	ctx    iiv.Ctx
	coords []int64

	// Events optionally records every loop event (used by the figure
	// reproduction tests; nil in production runs).
	Events *[]loopevents.Event
}

// NewPass2 builds the pass-2 hook for a program whose structure was
// recovered by AnalyzeStructure.
func NewPass2(prog *isa.Program, st *Structure, sink InstrSink) *Pass2 {
	p := &Pass2{Vector: iiv.NewVector(), Tree: iiv.NewTree(), sink: sink}
	p.tr = loopevents.NewTranslator(prog, st.Forest, st.Comps, p.emit)
	p.sync()
	return p
}

// emit is the loop-event consumer: it advances the iteration vector and
// the schedule tree.  A method (not a closure) so checkpoint resume can
// hand the same consumer to a restored translator.
func (p *Pass2) emit(e loopevents.Event) {
	if p.Events != nil {
		*p.Events = append(*p.Events, e)
	}
	p.Vector.Apply(e)
	switch e.Kind {
	case loopevents.EnterLoop, loopevents.IterateLoop,
		loopevents.EnterRec, loopevents.IterCallRec, loopevents.IterRetRec:
		p.Tree.NoteIteration(p.Vector)
	}
}

// Control implements trace.Hook.
func (p *Pass2) Control(ev trace.ControlEvent) {
	if p.sink != nil {
		p.sink.OnControl(ev)
	}
	p.tr.Control(ev)
	p.Tree.Touch(p.Vector)
	p.sync()
}

// sync refreshes the current context handle and coordinates from the
// tree and vector.
func (p *Pass2) sync() {
	p.ctx = p.Tree.Cur()
	p.coords = p.Vector.Coords(p.coords[:0])
}

// Instr implements trace.Hook.
func (p *Pass2) Instr(ev trace.InstrEvent, in *isa.Instr) {
	p.Tree.CountOp()
	if p.sink != nil {
		p.sink.OnInstr(p.ctx, p.coords, ev, in)
	}
}

// pass2Batcher upgrades Pass2 to a trace.BatchHook when its sink
// consumes batches: one call per batch instead of one per instruction
// (sound because the VM flushes batches before every control event,
// and the context only changes on control events).
type pass2Batcher struct {
	*Pass2
	batch BatchSink
}

func (p pass2Batcher) InstrBatch(evs []trace.InstrEvent, ins []*isa.Instr) {
	p.Tree.CountOps(len(evs))
	p.batch.OnInstrBatch(p.ctx, p.coords, evs, ins)
}

// hook returns the trace.Hook to register with the VM: Pass2 itself,
// or the batching wrapper when the sink consumes batches.
func (p *Pass2) hook() trace.Hook {
	if bs, ok := p.sink.(BatchSink); ok {
		return pass2Batcher{Pass2: p, batch: bs}
	}
	return p
}

// RunPass2 executes the program a second time under full
// instrumentation and returns the pass-2 artifacts with the schedule
// tree finalized, recording into the default registry.
func RunPass2(prog *isa.Program, st *Structure, sink InstrSink, initMem func([]uint64)) (*Pass2, vm.Stats, error) {
	return RunPass2Scoped(prog, st, sink, initMem, obs.Scope{}, nil)
}

// RunPass2Scoped is RunPass2 recording its stage span and VM counters
// into sc's registry, nested under sc's parent span, governed by bud
// (nil for unlimited).
func RunPass2Scoped(prog *isa.Program, st *Structure, sink InstrSink, initMem func([]uint64), sc obs.Scope, bud *budget.Budget) (*Pass2, vm.Stats, error) {
	return runPass2(prog, st, sink, initMem, sc, bud, nil, nil)
}

// runPass2 additionally publishes live progress into tr (nil for none)
// and, when ec is non-nil, runs under the streaming epoch driver
// (stream.go): the VM pauses at epoch boundaries and resumes from a
// checkpoint when one is armed.
func runPass2(prog *isa.Program, st *Structure, sink InstrSink, initMem func([]uint64), sc obs.Scope, bud *budget.Budget, tr *progress.Tracker, ec *epochConfig) (p *Pass2, stats vm.Stats, err error) {
	name := "pass2-iiv"
	if sink != nil {
		name = "pass2-ddg"
	}
	sp := sc.StartSpan(name)
	defer sp.End()
	defer RecoverStage(name, sp, &err)
	p = NewPass2(prog, st, sink)
	m := vm.New(prog, p.hook())
	m.InitMem = initMem
	m.Obs = sc
	m.Budget = bud
	m.Progress = tr
	if ec != nil {
		if err := ec.arm(p, m, prog, st); err != nil {
			sp.Fail(err)
			return nil, vm.Stats{}, err
		}
	}
	if err := m.Run(); err != nil {
		sp.Fail(err)
		return nil, vm.Stats{}, err
	}
	sp.AddEvents(m.Stats().Ops)
	sc.Add("iiv.contexts", p.Tree.Contexts())
	sc.Add("iiv.ctx_switches", p.Tree.Switches())
	p.Tree.Finalize()
	return p, m.Stats(), nil
}
