package parddg

import (
	"fmt"

	"polyprof/internal/ddg"
	"polyprof/internal/obs/sampler"
)

// shards returns the workers' fold sides, in shard order.
func (e *Engine) shards() []*ddg.Shard {
	out := make([]*ddg.Shard, len(e.workers))
	for i, w := range e.workers {
		out[i] = w.sh
	}
	return out
}

// FinishChecked drains the pipeline, merges the shards' bundle tables
// and coarse range maps into one builder (ddg.Merge) and runs the
// sequential builder's finish on it once, so the folded graph — and
// every ddg.* metric — is the sequential builder's by construction.
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
	g, err := ddg.Merge(e.front, e.shards()).FinishChecked()
	if err != nil {
		e.fail(err)
		return nil, e.finishFail(err)
	}
	e.mergeAct.Transition(sampler.Idle)
	e.finishSampling()
	e.publishMetrics()
	e.root.AddEvents(g.TotalOps)
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

// publishMetrics records the shard-level counters (ddg.shard.*); the
// shared finish publishes the ddg.* ones.
func (e *Engine) publishMetrics() {
	sc := e.opts.Obs
	if !sc.Enabled() {
		return
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
