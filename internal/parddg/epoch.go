// Epoch support for the sharded engine: a non-terminal pipeline
// barrier (Flush) and a deep snapshot (Snapshot) that a streaming run
// finishes for a provisional epoch report while the live pipeline keeps
// going.
//
// Epoch checkpoints, by contrast, are sequential-engine-only: the shard
// workers' fold streams interleave with in-flight batches, so the only
// cut the parallel engine can serialize cheaply is the post-Flush state
// — and at that point the sequential builder's checkpoint format
// (ddg.BuilderState) cannot express per-shard stream ownership.  The
// core driver therefore takes provisionals from either engine but
// checkpoints only sequential runs; a -parallel-ddg job that resumes
// does so from the last sequential-format checkpoint written before the
// engine switch, or from event zero.
package parddg

import (
	"polyprof/internal/ddg"
	"polyprof/internal/fold"
	"polyprof/internal/obs"
	"polyprof/internal/obs/sampler"
)

// Flush is a non-terminal pipeline barrier: it ships the partial batch
// and blocks until every in-flight batch has been fully processed and
// recycled.  On return the shard workers are idle (blocked on their
// channels) and their fold state reflects every event added so far —
// receiving the idle batches from the free list is the happens-before
// edge — so a snapshot taken now is a consistent cut.  The pipeline
// accepts new events immediately afterwards.
func (e *Engine) Flush() {
	if e.drained {
		return
	}
	e.dispatch()
	// The sequencer holds exactly one allocated batch (e.cur); the other
	// allocated-1 are in flight or idle.  Draining them from the free
	// list waits for the in-flight ones; pushing them back restores the
	// pool untouched.
	n := e.allocated - 1
	if n <= 0 {
		return
	}
	hold := make([]*batch, 0, n)
	e.seqAct.Transition(sampler.BlockedRecv)
	for i := 0; i < n; i++ {
		hold = append(hold, <-e.free)
	}
	e.seqAct.Transition(sampler.Running)
	for _, b := range hold {
		e.free <- b
	}
}

// Snapshot deep-copies the engine's merge inputs — vertices, per-shard
// folder maps, dependence entries, coarse summaries, counters — into a
// detached engine whose FinishChecked produces the provisional graph
// without disturbing the live run.  Call only with the pipeline
// quiescent (immediately after Flush, on the sequencer goroutine).  The
// snapshot carries no budget (its merge must not re-charge edge
// accounting) and publishes into a detached disabled registry.
func (e *Engine) Snapshot() *Engine {
	opts := e.opts
	opts.Budget = nil
	opts.Obs = obs.NewRegistry().Scope()
	s := &Engine{
		prog:         e.prog,
		opts:         opts,
		n:            e.n,
		totalOps:     e.totalOps,
		memOps:       e.memOps,
		fpOps:        e.fpOps,
		curRegWords:  e.curRegWords,
		peakRegWords: e.peakRegWords,
		drained:      true, // merge spawns fresh goroutines; no live workers
	}
	s.root = opts.Obs.StartSpan("ddg-shards-snapshot")
	s.sc = opts.Obs.WithSpan(s.root)

	sm := make(map[*ddg.Stmt]*ddg.Stmt, len(e.vt.Stmts))
	for _, st := range e.vt.Stmts {
		cs := new(ddg.Stmt)
		*cs = *st
		sm[st] = cs
		s.vt.Stmts = append(s.vt.Stmts, cs)
	}
	im := make(map[*ddg.Instr]*ddg.Instr, len(e.vt.Instrs))
	for _, i := range e.vt.Instrs {
		ci := new(ddg.Instr)
		*ci = *i
		ci.Stmt = sm[i.Stmt]
		im[i] = ci
		s.vt.Instrs = append(s.vt.Instrs, ci)
	}
	for _, w := range e.workers {
		cw := &worker{
			e:         s,
			id:        w.id,
			stmtF:     make(map[*ddg.Stmt]*fold.Folder, len(w.stmtF)),
			valF:      make(map[*ddg.Instr]*fold.Folder, len(w.valF)),
			accF:      make(map[*ddg.Instr]*fold.Folder, len(w.accF)),
			deps:      make(map[depKey]*depEntry, len(w.deps)),
			sp:        s.sc.StartSpan("snapshot-shard"),
			memEvents: w.memEvents,
			points:    w.points,
		}
		for st, f := range w.stmtF {
			cf := f.Clone()
			cf.Obs = opts.Obs
			cw.stmtF[sm[st]] = cf
		}
		for i, f := range w.valF {
			cf := f.Clone()
			cf.Obs = opts.Obs
			cw.valF[im[i]] = cf
		}
		for i, f := range w.accF {
			cf := f.Clone()
			cf.Obs = opts.Obs
			cw.accF[im[i]] = cf
		}
		for k, de := range w.deps {
			d := new(ddg.Dep)
			*d = *de.d
			d.Src = im[de.d.Src]
			d.Dst = im[de.d.Dst]
			cde := &depEntry{d: d}
			if de.folder != nil {
				cde.folder = de.folder.Clone()
				cde.folder.Obs = opts.Obs
			}
			if de.box != nil {
				cde.box = &coordBox{
					lo: append([]int64(nil), de.box.lo...),
					hi: append([]int64(nil), de.box.hi...),
					n:  de.box.n,
				}
			}
			cw.deps[k] = cde
		}
		if w.coarse != nil {
			cw.coarse = &coarseState{ranges: map[int64]*coarseRange{}, events: w.coarse.events}
			for k, rg := range w.coarse.ranges {
				crg := &coarseRange{writers: map[*ddg.Instr]*coordBox{}, readers: map[*ddg.Instr]*coordBox{}}
				for i, box := range rg.writers {
					crg.writers[im[i]] = &coordBox{lo: append([]int64(nil), box.lo...), hi: append([]int64(nil), box.hi...), n: box.n}
				}
				for i, box := range rg.readers {
					crg.readers[im[i]] = &coordBox{lo: append([]int64(nil), box.lo...), hi: append([]int64(nil), box.hi...), n: box.n}
				}
				cw.coarse.ranges[k] = crg
			}
		}
		s.workers = append(s.workers, cw)
	}
	return s
}
