// Epoch support for the sharded engine: a non-terminal pipeline
// barrier (Flush) and a deep snapshot (Snapshot) that a streaming run
// finishes for a provisional epoch report while the live pipeline keeps
// going.
//
// Epoch checkpoints, by contrast, are sequential-engine-only: the shard
// workers' fold streams interleave with in-flight batches, so the only
// cut the parallel engine can serialize cheaply is the post-Flush state
// — and while its fold side then merges into a builder, its shadow
// tables are this engine's own address-partitioned records, which the
// sequential checkpoint format (ddg.BuilderState) does not carry.  The
// core driver therefore takes provisionals from either engine but
// checkpoints only sequential runs; a -parallel-ddg job that resumes
// does so from the last sequential-format checkpoint written before the
// engine switch, or from event zero.
package parddg

import (
	"polyprof/internal/ddg"
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

// Snapshot deep-copies the engine's merge inputs — vertices with their
// folders, the shards' bundles and coarse summaries, counters — into a
// detached builder (ddg.Builder.Clone over ddg.Merge) whose
// FinishChecked produces the provisional graph without disturbing the
// live run.  Call only with the pipeline quiescent (immediately after
// Flush, on the sequencer goroutine).  The snapshot carries no budget
// (its finish must not re-charge edge accounting) and publishes into a
// detached disabled registry.
func (e *Engine) Snapshot() *ddg.Builder {
	return ddg.Merge(e.front, e.shards()).Clone()
}
