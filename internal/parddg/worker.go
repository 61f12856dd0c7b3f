package parddg

import (
	"fmt"

	"polyprof/internal/budget"
	"polyprof/internal/ddg"
	"polyprof/internal/obs"
	"polyprof/internal/obs/sampler"
)

// worker is one shard: it owns a disjoint address slice of the shadow
// tables (stage 1) and a disjoint set of fold streams (stage 2), folded
// through its own ddg.Shard.
type worker struct {
	e  *Engine
	id int
	ch chan *batch
	sp *obs.Span

	// sh holds this worker's bundles and, once its shadow budget
	// tripped, its coarse range summaries.  Range keys never collide
	// across shards because shardOf partitions on coarse-range
	// boundaries.
	sh *ddg.Shard

	memEvents uint64 // stage-1 memory events owned by this shard
	points    uint64 // stage-2 fold points consumed by this shard

	// Utilization sampling handles (nil without an attached sampler).
	act    *sampler.Actor
	depthQ *sampler.Queue
}

func newWorker(e *Engine, id int) *worker {
	w := &worker{
		e:  e,
		id: id,
		ch: make(chan *batch, maxInflight),
		sh: ddg.NewShard(e.opts),
		sp: e.sc.StartSpan(fmt.Sprintf("ddg.shard.%d", id)),
	}
	if e.smp != nil {
		w.act = e.smp.Actor(fmt.Sprintf("shard-%d", id), sampler.RoleShard)
		w.depthQ = e.smp.Queue(fmt.Sprintf("parddg.shard.%d.backlog", id))
	}
	if e.baseDenied {
		w.sh.TripShadow()
	}
	return w
}

func (w *worker) end() {
	w.sp.AddEvents(w.points)
	w.sp.End()
}

// process runs both stages of one batch.  Every worker calls Done
// exactly once per batch — even in drain mode — so no worker's barrier
// Wait can hang after a failure.
func (w *worker) process(b *batch) {
	if w.e.failed.Load() {
		b.wg.Done()
		w.e.recycle(b)
		return
	}
	w.runStage1(b)
	b.wg.Done()
	// The stage barrier is upstream waiting: this shard cannot fold
	// until every shard has resolved its stage-1 sources.
	w.act.Transition(sampler.BlockedRecv)
	b.wg.Wait()
	w.act.Transition(sampler.Running)
	if !w.e.failed.Load() {
		w.runStage2(b)
	}
	w.e.recycle(b)
}

func panicErr(stage string, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("panic in %s: %w", stage, err)
	}
	return fmt.Errorf("panic in %s: %v", stage, r)
}

// runStage1 resolves dependence sources for this shard's addresses:
// the exact transcription of the sequential builder's shadow-memory
// hot path, with addDep calls replaced by slot writes (folding belongs
// to the stream owner, which may be another shard).  Source coordinates
// are copied into the batch's per-worker arena because set() reuses
// record memory.
func (w *worker) runStage1(b *batch) {
	defer func() {
		if r := recover(); r != nil {
			w.e.fail(panicErr(fmt.Sprintf("parddg shard %d stage 1", w.id), r))
		}
	}()
	e := w.e
	arena := b.wArena[w.id][:0]
	for i := range b.events {
		be := &b.events[i]
		if be.memIdx < 0 || e.shardOf(be.addr) != w.id {
			continue
		}
		w.memEvents++
		s0 := &b.slots[2*be.memIdx]
		s1 := &b.slots[2*be.memIdx+1]
		if w.sh.ShadowTripped() {
			arena = w.coarseEvent(be, s0, s1, arena)
		} else if be.isWrite {
			wr := &e.shadow[be.addr]
			if wr.instr == nil && !w.grantRec(len(be.coords)) {
				arena = w.coarseEvent(be, s0, s1, arena)
			} else {
				if wr.instr != nil && e.opts.TrackOutput {
					arena = setSlot(s0, wr, ddg.Output, arena)
				}
				if rd := &e.lastRead[be.addr]; rd.instr != nil && e.opts.TrackAnti {
					arena = setSlot(s1, rd, ddg.Anti, arena)
				}
				wr.set(be.instr, be.coords)
			}
		} else {
			rd := &e.lastRead[be.addr]
			if rd.instr == nil && !w.grantRec(len(be.coords)) {
				arena = w.coarseEvent(be, s0, s1, arena)
			} else {
				if wr := &e.shadow[be.addr]; wr.instr != nil {
					arena = setSlot(s0, wr, ddg.FlowMem, arena)
				}
				rd.set(be.instr, be.coords)
			}
		}
	}
	b.wArena[w.id] = arena
}

// setSlot records one resolved dependence source, copying the source
// record's coordinates into the arena before a later event in the
// batch can overwrite them.
func setSlot(s *memSlot, r *rec, kind ddg.Kind, arena []int64) []int64 {
	off := len(arena)
	arena = append(arena, r.coords...)
	s.src = r.instr
	s.kind = kind
	s.srcCoords = arena[off:]
	return arena
}

// grantRec mirrors the sequential builder's grantRec: ask the budget
// for one live record, degrading this shard on a real denial.  The
// fault point injects exactly here, like ddg.shadow.insert does for
// the sequential engine.
func (w *worker) grantRec(dim int) bool {
	if err := insertFault.Hit(); err != nil {
		if be, ok := budget.AsError(err); ok && be.Resource == budget.ResourceShadowBytes {
			return false
		}
		w.e.fail(fmt.Errorf("parddg: shard %d insert: %w", w.id, err))
	}
	if w.e.opts.Budget.GrantShadow(ddg.ShadowRecBytes(dim)) {
		return true
	}
	w.sh.TripShadow()
	return false
}

// coarseEvent transcribes the sequential builder's degraded memory
// path: live records keep exact tracking, events whose counterpart
// lacks a record are noted in this shard's range summary.
func (w *worker) coarseEvent(be *event, s0, s1 *memSlot, arena []int64) []int64 {
	e := w.e
	wr := &e.shadow[be.addr]
	rd := &e.lastRead[be.addr]
	note := false
	if be.isWrite {
		if wr.instr != nil {
			if e.opts.TrackOutput {
				arena = setSlot(s0, wr, ddg.Output, arena)
			}
			wr.set(be.instr, be.coords)
		} else {
			note = true
		}
		if rd.instr != nil {
			if e.opts.TrackAnti {
				arena = setSlot(s1, rd, ddg.Anti, arena)
			}
		} else if e.opts.TrackAnti {
			note = true
		}
	} else {
		if wr.instr != nil {
			arena = setSlot(s0, wr, ddg.FlowMem, arena)
		} else {
			note = true
		}
		if rd.instr != nil {
			rd.set(be.instr, be.coords)
		} else if e.opts.TrackAnti {
			note = true
		}
	}
	if note {
		w.sh.NoteCoarse(be.addr, be.instr, be.coords, be.isWrite)
	}
	return arena
}

// runStage2 folds this worker's streams, scanning the whole batch in
// order: statement domains, register-flow points (resolved by the
// sequencer), access streams and memory-dependence slots (resolved in
// stage 1), and value streams.  Every stream is filtered by ownership,
// so each folder sees its points in exact global order.
func (w *worker) runStage2(b *batch) {
	defer func() {
		if r := recover(); r != nil {
			w.e.fail(panicErr(fmt.Sprintf("parddg shard %d stage 2", w.id), r))
		}
	}()
	sh, n := w.sh, w.e.n
	ri := 0
	for i := range b.events {
		be := &b.events[i]
		owned := be.instr.ID%n == w.id
		if be.instr.Ref.Index == 0 {
			if s := be.instr.Stmt; s.ID%n == w.id {
				sh.AddStmt(s, be.coords)
				w.points++
			}
		}
		for ri < len(b.regPts) && b.regPts[ri].ev == int32(i) {
			rp := &b.regPts[ri]
			ri++
			if ownerOfDep(rp.src.ID, be.instr.ID, ddg.FlowReg, n) == w.id {
				sh.AddDep(rp.src, rp.srcCoords, be.instr, be.coords, ddg.FlowReg)
				w.points++
			}
		}
		if be.memIdx >= 0 {
			if owned {
				sh.AddAccess(be.instr, be.coords, be.addr)
				w.points++
			}
			for s := 0; s < 2; s++ {
				sl := &b.slots[2*int(be.memIdx)+s]
				if sl.src != nil && ownerOfDep(sl.src.ID, be.instr.ID, sl.kind, n) == w.id {
					sh.AddDep(sl.src, sl.srcCoords, be.instr, be.coords, sl.kind)
					w.points++
				}
			}
		}
		if be.needValue && owned {
			sh.AddValue(be.instr, be.coords, be.value)
			w.points++
		}
	}
}
