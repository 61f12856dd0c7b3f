package parddg

import (
	"fmt"
	"sort"
	"sync"

	"polyprof/internal/ddg"
	"polyprof/internal/fold"
	"polyprof/internal/obs/sampler"
	"polyprof/internal/poly"
)

// coordBox, coarseRange and coarseState transcribe the sequential
// builder's degradation state (internal/ddg/degrade.go) for shard-local
// use; keeping the arithmetic identical is what makes a degraded
// parallel run's coarse regions pair into the same superset shape.

type coordBox struct {
	lo, hi []int64
	n      uint64
}

func (c *coordBox) extend(coords []int64) {
	c.n++
	if c.lo == nil {
		c.lo = append([]int64(nil), coords...)
		c.hi = append([]int64(nil), coords...)
		return
	}
	for i, v := range coords {
		if i >= len(c.lo) {
			break
		}
		if v < c.lo[i] {
			c.lo[i] = v
		}
		if v > c.hi[i] {
			c.hi[i] = v
		}
	}
}

func (c *coordBox) union(o *coordBox) {
	c.n += o.n
	if c.lo == nil {
		c.lo = append([]int64(nil), o.lo...)
		c.hi = append([]int64(nil), o.hi...)
		return
	}
	for i := range c.lo {
		if i >= len(o.lo) {
			break
		}
		if o.lo[i] < c.lo[i] {
			c.lo[i] = o.lo[i]
		}
		if o.hi[i] > c.hi[i] {
			c.hi[i] = o.hi[i]
		}
	}
}

func (c *coordBox) piece() fold.Piece {
	dom := poly.NewPoly(len(c.lo))
	dom.Approx = true
	for k := range c.lo {
		dom.AddRange(k, c.lo[k], c.hi[k])
	}
	return fold.Piece{Dom: dom, Exact: false, Points: c.n}
}

type coarseRange struct {
	writers map[*ddg.Instr]*coordBox
	readers map[*ddg.Instr]*coordBox
}

type coarseState struct {
	ranges map[int64]*coarseRange
	events uint64
}

func sortedByID(m map[*ddg.Instr]*coordBox) []*ddg.Instr {
	out := make([]*ddg.Instr, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FinishChecked drains the pipeline and merges the shard-local results
// into the folded graph, byte-identical to the sequential builder's
// FinishChecked on non-degraded runs.  The merge itself is parallel
// again (one goroutine per shard finishing the folders that shard
// owns), with the same amortized hard-budget polling as the sequential
// path.
func (e *Engine) FinishChecked() (*ddg.Graph, error) {
	if e.finished {
		return nil, fmt.Errorf("parddg: engine already finished")
	}
	e.drain()
	e.mergeAct.Transition(sampler.Running)
	if err := mergeFault.Hit(); err != nil {
		e.fail(fmt.Errorf("parddg: merge: %w", err))
	}
	if e.failed.Load() {
		return nil, e.finishFail(e.failure())
	}
	bud := e.opts.Budget

	// Union the shard dependence maps: keys are disjoint by stream
	// ownership, so this is a plain relabeling, not a conflict merge.
	deps := map[depKey]*depEntry{}
	var all []*depEntry
	for _, w := range e.workers {
		for k, de := range w.deps {
			deps[k] = de
			all = append(all, de)
		}
	}

	// Pair coarse ranges first, exactly like the sequential
	// finishCoarse: shard range maps are disjoint (shardOf partitions on
	// range boundaries), so their union walks the same sorted ranges.
	ranges := map[int64]*coarseRange{}
	var coarseEvents uint64
	anyCoarse := false
	for _, w := range e.workers {
		if w.coarse == nil {
			continue
		}
		anyCoarse = true
		coarseEvents += w.coarse.events
		for k, rg := range w.coarse.ranges {
			ranges[k] = rg
		}
	}
	addCoarse := func(src, dst *ddg.Instr, kind ddg.Kind, consumer *coordBox) {
		key := depKey{src: src.ID, dst: dst.ID, kind: kind}
		de, ok := deps[key]
		if !ok {
			bud.GrantEdges(1)
			de = &depEntry{d: &ddg.Dep{Src: src, Dst: dst, Kind: kind}}
			deps[key] = de
			all = append(all, de)
		}
		de.d.Degraded = true
		if de.box == nil {
			de.box = &coordBox{}
		}
		de.box.union(consumer)
	}
	rangeKeys := make([]int64, 0, len(ranges))
	for k := range ranges {
		rangeKeys = append(rangeKeys, k)
	}
	sort.Slice(rangeKeys, func(i, j int) bool { return rangeKeys[i] < rangeKeys[j] })
	for _, k := range rangeKeys {
		rg := ranges[k]
		writers := sortedByID(rg.writers)
		readers := sortedByID(rg.readers)
		for _, wi := range writers {
			for _, r := range readers {
				addCoarse(wi, r, ddg.FlowMem, rg.readers[r])
				if e.opts.TrackAnti {
					addCoarse(r, wi, ddg.Anti, rg.writers[wi])
				}
			}
			if e.opts.TrackOutput {
				for _, w2 := range writers {
					addCoarse(wi, w2, ddg.Output, rg.writers[w2])
				}
			}
		}
	}

	g := &ddg.Graph{
		Stmts:    e.vt.Stmts,
		Instrs:   e.vt.Instrs,
		TotalOps: e.totalOps,
		MemOps:   e.memOps,
		FPOps:    e.fpOps,
	}

	// Merge phase 1: statement domains and instruction value/access
	// pieces, one goroutine per shard over the streams it owns.  A
	// stream the shard never saw a point for still gets a fresh folder
	// finished, matching the sequential builder (which creates folders
	// eagerly and finishes them empty).
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					e.fail(panicErr("parddg merge fold", r))
				}
			}()
			cnt := 0
			check := func() bool {
				cnt++
				if cnt&4095 == 0 {
					if err := bud.Check("fold"); err != nil {
						e.fail(err)
						return false
					}
				}
				return true
			}
			for _, s := range e.vt.Stmts {
				if s.ID%e.n != w.id {
					continue
				}
				f := w.stmtF[s]
				if f == nil {
					f = w.newFolder(s.Depth, 0)
				}
				s.Domain = f.Finish()
				if !check() {
					return
				}
			}
			for _, i := range e.vt.Instrs {
				if i.ID%e.n != w.id {
					continue
				}
				if i.HasValue() {
					f := w.valF[i]
					if f == nil {
						f = w.newFolder(i.Depth, 1)
					}
					i.Value = f.Finish()
				}
				if i.HasAccess() {
					f := w.accF[i]
					if f == nil {
						f = w.newFolder(i.Depth, 1)
					}
					i.Access = f.Finish()
				}
				// Assignment (not a latch) so finishing a provisional
				// snapshot's clones recomputes the flag from scratch.
				i.IsSCEV = i.Op.IsIntALU() && i.Value.Fn != nil
				if !check() {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if e.failed.Load() {
		return nil, e.finishFail(e.failure())
	}

	// Merge phase 2 (after the SCEV barrier): fold dependence bundles,
	// skipping chains into SCEV instructions without finishing their
	// folders — the sequential builder skips them the same way, which
	// keeps the fold.streams census identical.
	emitted := make([][]*ddg.Dep, e.n)
	for gi := 0; gi < e.n; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					e.fail(panicErr("parddg merge deps", r))
				}
			}()
			cnt := 0
			var out []*ddg.Dep
			for idx := gi; idx < len(all); idx += e.n {
				de := all[idx]
				d := de.d
				if d.Src.IsSCEV || d.Dst.IsSCEV {
					continue
				}
				if de.folder != nil {
					d.Pieces = de.folder.Finish()
				}
				if de.box != nil {
					d.Pieces = append(d.Pieces, de.box.piece())
					if d.Count == 0 {
						d.Count = de.box.n
					}
				}
				out = append(out, d)
				cnt++
				if cnt&4095 == 0 {
					if err := bud.Check("fold"); err != nil {
						e.fail(err)
						return
					}
				}
			}
			emitted[gi] = out
		}(gi)
	}
	wg.Wait()
	if e.failed.Load() {
		return nil, e.finishFail(e.failure())
	}
	for _, out := range emitted {
		g.Deps = append(g.Deps, out...)
	}
	sort.Slice(g.Deps, func(i, j int) bool {
		a, c := g.Deps[i], g.Deps[j]
		if a.Src.ID != c.Src.ID {
			return a.Src.ID < c.Src.ID
		}
		if a.Dst.ID != c.Dst.ID {
			return a.Dst.ID < c.Dst.ID
		}
		return a.Kind < c.Kind
	})

	tripped := bud.Tripped()
	if anyCoarse || len(tripped) > 0 {
		deg := &ddg.Degradation{Budgets: tripped}
		if anyCoarse {
			deg.CoarseEvents = coarseEvents
			deg.Regions = e.coarseRegions(rangeKeys)
		}
		for _, d := range g.Deps {
			if d.Degraded {
				deg.CoarseDeps++
			}
		}
		g.Degraded = deg
	}

	e.mergeAct.Transition(sampler.Idle)
	e.finishSampling()
	e.publishMetrics(g, len(all))
	e.root.AddEvents(e.totalOps)
	e.root.End()
	e.finished = true
	return g, nil
}

func (e *Engine) finishFail(err error) error {
	e.finishSampling()
	e.root.Fail(err)
	e.root.End()
	e.finished = true
	return err
}

// coarseRegions merges the sorted union of shard coarse ranges into
// address regions, exactly like the sequential builder.
func (e *Engine) coarseRegions(keys []int64) []ddg.DegradedRegion {
	var out []ddg.DegradedRegion
	for _, k := range keys {
		lo := k << ddg.CoarseRangeShift
		hi := lo + (1 << ddg.CoarseRangeShift) - 1
		if hi >= e.prog.MemWords {
			hi = e.prog.MemWords - 1
		}
		if n := len(out); n > 0 && out[n-1].Hi+1 >= lo {
			out[n-1].Hi = hi
			continue
		}
		out = append(out, ddg.DegradedRegion{Lo: lo, Hi: hi})
	}
	for i := range out {
		r := &out[i]
		var names []string
		for name, gl := range e.prog.Globals {
			if gl.Base <= r.Hi && gl.Base+gl.Size > r.Lo {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		r.Globals = names
	}
	return out
}

// publishMetrics records the same ddg.* metrics as the sequential
// builder plus the shard-level counters (ddg.shard.*).
func (e *Engine) publishMetrics(g *ddg.Graph, folded int) {
	sc := e.opts.Obs
	if !sc.Enabled() {
		return
	}
	sc.MaxGauge("ddg.shadow.words", int64(len(e.shadow)+len(e.lastRead)))
	sc.MaxGauge("ddg.regtable.peak_words", int64(e.peakRegWords))
	sc.Add("ddg.stmts", uint64(len(g.Stmts)))
	sc.Add("ddg.instrs", uint64(len(g.Instrs)))
	sc.Add("ddg.deps.folded", uint64(folded))
	sc.Add("ddg.deps.emitted", uint64(len(g.Deps)))
	sc.Add("ddg.deps.scev_elided", uint64(folded-len(g.Deps)))
	sc.Add("ddg.events.instr", e.totalOps)
	sc.Add("ddg.events.mem", e.memOps)
	var depPoints uint64
	for _, d := range g.Deps {
		depPoints += d.Count
		sc.Observe("ddg.dep.points", d.Count)
	}
	sc.Add("ddg.dep.points.total", depPoints)
	if deg := g.Degraded; deg != nil {
		sc.Add("ddg.degraded.runs", 1)
		sc.Add("ddg.degraded.coarse_deps", uint64(deg.CoarseDeps))
		sc.Add("ddg.degraded.coarse_events", deg.CoarseEvents)
		sc.Add("ddg.degraded.regions", uint64(len(deg.Regions)))
	}
	sc.SetGauge("ddg.shard.count", int64(e.n))
	var maxPts uint64
	for _, w := range e.workers {
		sc.Add("ddg.shard.mem_events", w.memEvents)
		sc.Add("ddg.shard.points", w.points)
		if w.points > maxPts {
			maxPts = w.points
		}
	}
	sc.MaxGauge("ddg.shard.points.max", int64(maxPts))
}
