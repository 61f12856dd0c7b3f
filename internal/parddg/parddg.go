// Package parddg is the sharded, pipelined dependence-tracking engine:
// a drop-in replacement for the sequential internal/ddg builder that
// consumes the pass-2 event stream in batches and fans the expensive
// work — shadow-memory lookups and stream folding — out to N
// address-partitioned shard workers, while everything order-sensitive
// that assigns identity (statement/instruction interning, dynamic
// counts, the register/frame mirror) stays on the sequencing
// goroutine.
//
// The engine folds through the sequential builder's own kernel: the
// sequencer drives a ddg.Front (vertex interning, dynamic counts, the
// register/frame mirror), each worker owns a ddg.Shard (bundle table,
// coarse summaries, point folding into the vertices' folders), and
// FinishChecked merges the shards into one builder and runs its
// finish.  What is left here is sequencing, address-partitioned shadow
// resolution, routing points to their owners, and the merge.
//
// The engine's contract is bit-for-bit equivalence with the sequential
// builder on non-degraded runs: the folded graph it returns — IDs,
// counts, domains, pieces, dependence order — is byte-identical in the
// report JSON.  The equivalence argument rests on three invariants:
//
//  1. Identity is sequential.  Stmt/Instr IDs are assigned on the
//     sequencing goroutine in first-appearance order by the Front, as
//     in the sequential builder.
//  2. Streams have exactly one owner.  Every fold stream is consumed by
//     exactly one shard worker: a statement domain by shard Stmt.ID%N,
//     an instruction's value and access streams by shard Instr.ID%N,
//     a dependence bundle by the hash of (src, dst, kind) in
//     ownerOfDep.  Every worker scans batches in dispatch order, so
//     each stream sees its points in the global sequential order, which
//     is what the folder's greedy run recognition is sensitive to.
//  3. Shadow state is partitioned.  Each worker owns a disjoint
//     address slice of the last-writer/last-reader tables (partitioned
//     on coarse-range boundaries so a degraded range never spans
//     shards), and resolves dependence sources for its addresses in
//     stage 1 of each batch; a per-batch barrier then lets every
//     worker fold the sources the others resolved.
//
// At Finish the shards' bundle tables and coarse range maps are
// disjoint by construction and union into one, and the sequential
// finish runs once, so the same report falls out regardless of N.
// Degraded runs (shadow/edge budget exhaustion) are the one exemption
// from bit-identity — grant ordering is racy by nature — but
// degradation stays shard-local and the union of coarse regions
// remains a superset of the exact dependences, the same soundness
// direction the sequential builder guarantees.
package parddg

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"polyprof/internal/ddg"
	"polyprof/internal/faultinject"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
	"polyprof/internal/obs/sampler"
	"polyprof/internal/trace"
)

// Fault points for chaos testing the three concurrency boundaries.
var (
	dispatchFault = faultinject.Point("parddg.batch.dispatch")
	insertFault   = faultinject.Point("parddg.shard.insert")
	mergeFault    = faultinject.Point("parddg.merge")
)

// batchSize is the dispatch threshold: events accumulate on the
// sequencer until a batch this large ships to the shard workers.
const batchSize = 4096

// maxInflight bounds allocated batches; a full pipeline blocks the
// sequencer on the free list (backpressure) instead of growing memory.
const maxInflight = 8

// Options tunes the engine.
type Options struct {
	// Shards is the worker count (>= 1).
	Shards int
	// DDG carries the sequential builder's options (tracked kinds,
	// stride detection, obs scope, budget); the engine honors them
	// identically.
	DDG ddg.Options
	// Sampler, when non-nil and enabled, collects per-actor utilization
	// timelines (sequencer/shards/merge) and queue-depth samples for
	// the parallel diagnosis report.  Nil costs the hot paths a single
	// nil check per transition site.
	Sampler *sampler.Sampler
}

// pollInterval is the queue-depth sampling period while the sampler is
// enabled.
const pollInterval = 250 * time.Microsecond

// rec is one shadow-memory record: the producing instruction and its
// retained iteration coordinates.  set reuses the coordinate memory,
// which is why batch events carry copies.
type rec struct {
	instr  *ddg.Instr
	coords []int64
}

func (r *rec) set(instr *ddg.Instr, coords []int64) {
	r.instr = instr
	r.coords = append(r.coords[:0], coords...)
}

// event is one instruction event as the shard workers see it.  coords
// points into the batch's coordinate arena (shared by every event of
// the same context run); addr is -1 for non-memory instructions.
type event struct {
	instr     *ddg.Instr
	coords    []int64
	addr      int64
	value     int64
	memIdx    int32 // index among this batch's memory events, -1 otherwise
	isWrite   bool
	needValue bool
}

// regPoint is one register-flow dependence point, resolved on the
// sequencer (the register mirror lives there); srcCoords is a copy in
// the batch arena, taken before a later event in the same batch can
// overwrite the producer's record.
type regPoint struct {
	ev        int32
	src       *ddg.Instr
	srcCoords []int64
}

// memSlot is one memory-dependence point resolved by a stage-1 shard
// worker; slots 2i and 2i+1 belong to memory event i (write: output
// then anti; read: flow).  src == nil means no dependence.
type memSlot struct {
	src       *ddg.Instr
	kind      ddg.Kind
	srcCoords []int64
}

// batch is one dispatch unit.  The same pointer goes to every worker:
// stage 1 writes disjoint slot indices and per-worker arenas, the
// WaitGroup is the stage-1/stage-2 barrier, and the done counter
// recycles the batch to the free list after the last worker finishes.
type batch struct {
	events []event
	coords []int64 // sequencer arena: context coords + regPoint sources
	regPts []regPoint
	slots  []memSlot
	wArena [][]int64 // per-worker stage-1 coordinate arenas
	memN   int

	wg   sync.WaitGroup
	done atomic.Int32
}

// Engine is the sharded dependence engine.  It implements
// core.InstrSink and core.BatchSink; all sink methods must be called
// from one goroutine (the pass-2 VM goroutine), like the sequential
// builder.
type Engine struct {
	opts ddg.Options
	n    int

	// front is the sequencer-owned order-sensitive side, the sequential
	// builder's own, so vertex IDs are identical by construction.
	front *ddg.Front

	// Shared shadow tables, index-partitioned across workers by
	// shardOf; no two workers ever touch the same element.
	shadow   []rec
	lastRead []rec

	workers    []*worker
	chans      []chan *batch
	free       chan *batch
	allocated  int
	cur        *batch
	workerJoin sync.WaitGroup

	// baseDenied records that the up-front table grant failed: every
	// shard starts coarse, like the sequential builder.
	baseDenied bool

	failMu  sync.Mutex
	failErr error
	failed  atomic.Bool

	sc       obs.Scope // scope under the engine root span
	root     *obs.Span
	drained  bool
	finished bool
	closed   bool

	// Utilization sampling (nil when no sampler is attached).
	smp      *sampler.Sampler
	seqAct   *sampler.Actor
	mergeAct *sampler.Actor
	inflight *sampler.Queue
}

// NewEngine creates a sharded engine for one execution of prog and
// starts its workers.  Callers must eventually call FinishChecked or
// Close.
func NewEngine(prog *isa.Program, opt Options) *Engine {
	n := opt.Shards
	if n < 1 {
		n = 1
	}
	e := &Engine{
		opts:     opt.DDG,
		n:        n,
		front:    ddg.NewFront(prog, opt.DDG),
		shadow:   make([]rec, prog.MemWords),
		lastRead: make([]rec, prog.MemWords),
		free:     make(chan *batch, maxInflight),
	}
	// Charge the fixed record tables up front, exactly like the
	// sequential builder; a denial degrades every shard from the start.
	if !e.opts.Budget.GrantShadow(ddg.BaseShadowBytes(prog.MemWords)) {
		e.baseDenied = true
	}
	e.root = e.opts.Obs.StartSpan("ddg-shards")
	e.sc = e.opts.Obs.WithSpan(e.root)
	flight.Log("parddg", "engine-start", fmt.Sprintf("%d shards, %d mem words", n, prog.MemWords))
	e.cur = e.newBatch()
	e.allocated = 1
	if e.smp = opt.Sampler; e.smp != nil {
		e.seqAct = e.smp.Actor("sequencer", sampler.RoleSequencer)
		e.mergeAct = e.smp.Actor("merge", sampler.RoleMerge)
		e.inflight = e.smp.Queue("parddg.inflight")
		// The sequencer actor is the whole pass-2 serial thread — VM
		// execution plus event sequencing — not just time inside the sink:
		// that thread is the pipeline's serial stage, and its occupancy is
		// what bounds speedup.  It runs from engine creation until drain,
		// minus the explicitly sampled blocking intervals.
		e.seqAct.Transition(sampler.Running)
	}
	for i := 0; i < n; i++ {
		w := newWorker(e, i)
		e.workers = append(e.workers, w)
		e.chans = append(e.chans, w.ch)
		e.workerJoin.Add(1)
		go func(w *worker) {
			defer e.workerJoin.Done()
			for {
				w.act.Transition(sampler.BlockedRecv)
				b, ok := <-w.ch
				if !ok {
					w.act.Transition(sampler.Idle)
					return
				}
				w.act.Transition(sampler.Running)
				w.process(b)
			}
		}(w)
	}
	// Channel length reads are safe concurrently, so the poller can
	// sample shard backlogs from outside the pipeline; the in-flight
	// batch count is sequencer state and is sampled at dispatch instead.
	if e.smp != nil {
		workers := e.workers
		e.smp.StartPoll(pollInterval, func() {
			for _, w := range workers {
				w.depthQ.Observe(int64(len(w.ch)))
			}
		})
	}
	return e
}

func (e *Engine) newBatch() *batch {
	return &batch{wArena: make([][]int64, e.n)}
}

// shardOf partitions addresses on coarse-range boundaries, so one
// degraded range is always summarized by a single shard.
func (e *Engine) shardOf(addr int64) int {
	return int((addr >> ddg.CoarseRangeShift) % int64(e.n))
}

// ownerOfDep deterministically assigns a dependence stream to a shard.
// Bundles are hashed by endpoint identity, not address: one bundle can
// span addresses owned by many shards, but must have a single folding
// owner.
func ownerOfDep(src, dst int, kind ddg.Kind, n int) int {
	h := uint64(src)*0x9E3779B97F4A7C15 ^ uint64(dst)*0xC2B2AE3D27D4EB4F ^ (uint64(kind)+1)*0x165667B19E3779F9
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return int(h % uint64(n))
}

func (e *Engine) fail(err error) {
	if err == nil {
		return
	}
	e.failMu.Lock()
	first := e.failErr == nil
	if first {
		e.failErr = err
	}
	e.failMu.Unlock()
	e.failed.Store(true)
	if first {
		// The fail latch fires once per engine; a parallel-engine failure
		// (contained shard panic, injected fault, dispatch error) is an
		// anomaly worth a bundle — the merged error string the caller sees
		// no longer says which shard or protocol step died, the ring does.
		flight.Trigger("parddg-failure", flight.TriggerInfo{
			Stage:  "pass2-ddg",
			Detail: fmt.Sprintf("parallel engine failed (%d shards): %v", e.n, err),
		})
	}
}

func (e *Engine) failure() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}

// OnControl implements core.InstrSink: the Front's register/frame
// mirror.
func (e *Engine) OnControl(ev trace.ControlEvent) { e.front.OnControl(ev) }

// ctxCoords copies the current context coordinates into the current
// batch's arena; every event of the run shares the copy.
func (e *Engine) ctxCoords(coords []int64) []int64 {
	b := e.cur
	off := len(b.coords)
	b.coords = append(b.coords, coords...)
	return b.coords[off : off+len(coords)]
}

// OnInstrBatch implements core.BatchSink.  No sampler transitions here:
// the sequencer actor stays "running" across sink calls (VM execution
// between batches is serial-stage work too) and only the blocking
// points in dispatch/drain transition, keeping the sampled path far off
// the per-event hot loop.
func (e *Engine) OnInstrBatch(ctx iiv.Ctx, coords []int64, evs []trace.InstrEvent, ins []*isa.Instr) {
	cc := e.ctxCoords(coords)
	for i := range evs {
		if cc == nil {
			cc = e.ctxCoords(coords)
		}
		cc = e.addEvent(ctx, cc, evs[i], ins[i])
	}
}

// OnInstr implements core.InstrSink (the unbatched path).
func (e *Engine) OnInstr(ctx iiv.Ctx, coords []int64, ev trace.InstrEvent, in *isa.Instr) {
	e.addEvent(ctx, e.ctxCoords(coords), ev, in)
}

// addEvent is the sequencer's per-event path: everything the
// sequential builder does per event except shadow lookups and folding,
// which ship to the workers.  Returns the context-coordinate slice to
// use for the next event of the same run (nil after a dispatch, so the
// caller re-copies into the fresh batch).
func (e *Engine) addEvent(ctx iiv.Ctx, cc []int64, ev trace.InstrEvent, in *isa.Instr) []int64 {
	_, instr := e.front.Enter(ctx, cc, ev, in)
	b := e.cur
	evIdx := int32(len(b.events))

	// Register flow points: resolved here (the register mirror is
	// sequencer state), folded by the owning worker.  Source coords are
	// copied into the arena because a later event in this same batch
	// may overwrite the producer's record before the worker reads it.
	if e.opts.TrackReg {
		for _, r := range e.front.Uses(in) {
			if src, srcCoords := e.front.RegSource(r); src != nil {
				off := len(b.coords)
				b.coords = append(b.coords, srcCoords...)
				b.regPts = append(b.regPts, regPoint{ev: evIdx, src: src, srcCoords: b.coords[off:]})
			}
		}
	}

	be := event{instr: instr, coords: cc, addr: -1, memIdx: -1}
	if ev.Addr >= 0 {
		be.addr = ev.Addr
		be.isWrite = in.Op.IsMemWrite()
		be.memIdx = int32(b.memN)
		b.memN++
	}
	if in.Op.WritesDst() && in.Dst != isa.NoReg && in.Op != isa.Call && instr.HasValue() {
		be.needValue = true
		be.value = ev.Value
	}
	e.front.Retire(in, instr, cc)

	b.events = append(b.events, be)
	if len(b.events) >= batchSize {
		e.dispatch()
		return nil
	}
	return cc
}

// dispatch ships the current batch to every worker and takes a fresh
// one from the free list (blocking there is the pipeline's
// backpressure).
func (e *Engine) dispatch() {
	b := e.cur
	if len(b.events) == 0 {
		return
	}
	if err := dispatchFault.Hit(); err != nil {
		e.fail(fmt.Errorf("parddg: batch dispatch: %w", err))
	}
	n := 2 * b.memN
	if cap(b.slots) < n {
		b.slots = make([]memSlot, n)
	} else {
		b.slots = b.slots[:n]
		clear(b.slots)
	}
	b.done.Store(0)
	b.wg.Add(e.n)
	if sc := e.sc; sc.Enabled() {
		sc.Add("parddg.batches", 1)
		sc.Observe("parddg.batch.events", uint64(len(b.events)))
		// In-flight depth at dispatch: allocated batches minus the idle
		// ones (the freshly shipped batch counts).
		sc.Observe("parddg.batch.queue_depth", uint64(e.allocated-len(e.free)))
	}
	e.inflight.Observe(int64(e.allocated - len(e.free)))
	e.seqAct.Transition(sampler.BlockedSend)
	for _, ch := range e.chans {
		ch <- b
	}
	e.seqAct.Transition(sampler.Running)
	select {
	case nb := <-e.free:
		e.cur = nb
	default:
		if e.allocated < maxInflight {
			e.allocated++
			e.cur = e.newBatch()
		} else {
			// Pipeline backpressure: every allocated batch is still in
			// flight, so the sequencer stalls on the free list.
			e.seqAct.Transition(sampler.BlockedRecv)
			e.cur = <-e.free
			e.seqAct.Transition(sampler.Running)
		}
	}
}

// recycle returns a fully processed batch to the free list; the last
// worker to finish resets it.
func (e *Engine) recycle(b *batch) {
	if b.done.Add(1) == int32(e.n) {
		b.events = b.events[:0]
		b.coords = b.coords[:0]
		b.regPts = b.regPts[:0]
		b.memN = 0
		e.free <- b
	}
}

// drain flushes the partial batch, closes the worker channels and
// joins the workers.  Idempotent.
func (e *Engine) drain() {
	if e.drained {
		return
	}
	e.drained = true
	e.dispatch()
	for _, ch := range e.chans {
		close(ch)
	}
	e.seqAct.Transition(sampler.BlockedRecv)
	e.workerJoin.Wait()
	e.seqAct.Transition(sampler.Idle)
	e.smp.StopPoll()
	for _, w := range e.workers {
		w.end()
	}
}

// finishSampling closes the utilization timelines and publishes the
// diagnosis headline metrics; safe to call on every exit path.
func (e *Engine) finishSampling() {
	if e.smp == nil {
		return
	}
	e.smp.Finish()
	if rep := e.smp.Report(); rep != nil {
		rep.Publish(e.opts.Obs)
	}
}

// Close aborts the engine without merging (idempotent; safe after
// FinishChecked).  Run drivers defer it so an error between pass 2 and
// Finish cannot leak the worker goroutines.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.drain()
	if !e.finished {
		e.finishSampling()
		e.root.End()
	}
}
