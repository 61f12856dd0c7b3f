// Streaming epoch driver.  A streaming run chunks pass 2 into epochs
// of EpochEvents dynamic instructions.  At every boundary — the VM
// quiescent, batches flushed — the driver:
//
//  1. releases stale shadow records back to the budget (sequential
//     engine with a shadow ceiling: bounded-memory mode, see
//     ddg.Options.Stream),
//  2. folds a deep clone of the live state into a provisional Profile
//     (epoch summaries only ever ADD dependences relative to earlier
//     epochs — folding is monotone and releases only substitute
//     conservative supersets),
//  3. serializes a Checkpoint of the complete pass-2 state, which the
//     job layer persists through the WAL so a killed attempt resumes
//     from the last committed epoch instead of event zero.
//
// Epoch boundaries are deterministic (exact multiples of EpochEvents in
// the VM's op counter), so they land identically on fresh and resumed
// attempts — the invariant behind resume-exactness: the final report of
// a resumed run is byte-identical to an uninterrupted one, with or
// without -parallel-ddg.
//
// Checkpoints are sequential-engine-only and pause while a budget is
// degraded (coarse state is monotone and address-granular; re-charging
// it under a fresh budget would double-degrade).  Provisional reports
// come from either engine: the sequential builder deep-clones, the
// sharded engine flushes its pipeline and snapshots.
package core

import (
	"encoding/json"
	"fmt"

	"polyprof/internal/ddg"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
	"polyprof/internal/obs/flight"
	"polyprof/internal/parddg"
	"polyprof/internal/vm"
)

// Checkpoint is the complete serialized pass-2 state at an epoch
// boundary.  Control structure is NOT stored: pass 1 is deterministic
// and ~10x cheaper than pass 2, so a resumed attempt re-derives the
// forest/component set and re-binds the checkpoint's IDs against it.
type Checkpoint struct {
	// Epoch is the 1-based ordinal of the boundary this checkpoint was
	// taken at; Events is the VM op counter there.
	Epoch  uint64 `json:"epoch"`
	Events uint64 `json:"events"`

	VM         *vm.State                  `json:"vm"`
	Vector     iiv.VectorState            `json:"vector"`
	Tree       iiv.TreeState              `json:"tree"`
	Translator loopevents.TranslatorState `json:"translator"`
	// DDG is nil for iiv-only runs (no dependence sink).
	DDG *ddg.BuilderState `json:"ddg,omitempty"`
}

// DecodeCheckpoint parses a serialized checkpoint.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint: %w", err)
	}
	if ck.VM == nil {
		return nil, fmt.Errorf("core: checkpoint has no VM state")
	}
	return &ck, nil
}

// Epoch is what OnEpoch receives at each boundary.
type Epoch struct {
	// N is the 1-based epoch ordinal (resumed runs continue the
	// ordinals of the checkpoint they started from); Events is the VM op
	// counter at the boundary.
	N      uint64
	Events uint64
	// ReleasedBytes is the shadow budget returned at this boundary
	// (bounded-memory streaming only).
	ReleasedBytes uint64
	// Provisional is the folded profile of everything seen so far; its
	// dependence set can only grow in later epochs.
	Provisional *Profile
	// Checkpoint is the serialized Checkpoint, nil when the run is not
	// checkpointable (parallel engine, degraded budget, iiv-only pass
	// follows the same rule as the profile).
	Checkpoint []byte
}

// epochConfig is the driver state threaded from Run into runPass2.
type epochConfig struct {
	events  uint64
	cb      func(*Epoch) error
	resume  *Checkpoint
	builder *ddg.Builder   // sequential engine, nil when parallel
	engine  *parddg.Engine // parallel engine, nil when sequential

	prog *isa.Program
	st   *Structure

	p      *Pass2
	m      *vm.Machine
	epochN uint64
}

// arm installs the epoch hook on the machine and, when a checkpoint is
// armed, restores every pass-2 layer from it.
func (ec *epochConfig) arm(p *Pass2, m *vm.Machine, prog *isa.Program, st *Structure) error {
	ec.p, ec.m, ec.prog, ec.st = p, m, prog, st
	m.EpochEvents = ec.events
	m.OnEpoch = ec.fire
	ck := ec.resume
	if ck == nil {
		return nil
	}
	res := iiv.NewElemResolver(st.Forest, st.Comps)
	v, err := iiv.RestoreVector(ck.Vector, res)
	if err != nil {
		return err
	}
	t, err := iiv.RestoreTree(ck.Tree, res)
	if err != nil {
		return err
	}
	tr, err := loopevents.RestoreTranslator(prog, st.Forest, st.Comps, p.emit, ck.Translator)
	if err != nil {
		return err
	}
	p.Vector, p.Tree, p.tr = v, t, tr
	p.sync()
	m.Restore(ck.VM)
	ec.epochN = ck.Epoch
	flight.Log("stream", "resume", fmt.Sprintf("resuming pass 2 from epoch %d (%d events)", ck.Epoch, ck.Events))
	return nil
}

// fire runs at one epoch boundary, on the VM goroutine, with the
// machine quiescent.  Any error (including injected faults in the fold
// or checkpoint paths) aborts the attempt; the job layer retries from
// the last checkpoint that committed.
func (ec *epochConfig) fire(events uint64) error {
	ec.epochN++
	var released uint64
	if ec.builder != nil {
		released = ec.builder.ReleaseEpoch()
	}
	if ec.cb == nil {
		return nil
	}
	ep := &Epoch{N: ec.epochN, Events: events, ReleasedBytes: released}
	prov, err := ec.provisional()
	if err != nil {
		return fmt.Errorf("core: provisional fold at epoch %d: %w", ec.epochN, err)
	}
	ep.Provisional = prov
	if ec.builder != nil && ec.builder.Checkpointable() {
		data, err := ec.checkpoint(events)
		if err != nil {
			return fmt.Errorf("core: checkpoint at epoch %d: %w", ec.epochN, err)
		}
		ep.Checkpoint = data
	}
	return ec.cb(ep)
}

// provisional folds a deep clone of the live state into a Profile.
// The clone carries no budget and a detached disabled registry, so the
// live run's accounting and metrics are untouched.
func (ec *epochConfig) provisional() (*Profile, error) {
	var g *ddg.Graph
	var err error
	switch {
	case ec.builder != nil:
		g, err = ec.builder.Clone().FinishChecked()
	case ec.engine != nil:
		ec.engine.Flush()
		g, err = ec.engine.Snapshot().FinishChecked()
	}
	if err != nil {
		return nil, err
	}
	tree := ec.p.Tree.Clone()
	tree.Finalize()
	return &Profile{
		Prog:      ec.prog,
		Structure: ec.st,
		Tree:      tree,
		DDG:       g,
		Stats:     ec.m.Stats(),
	}, nil
}

// checkpoint serializes the full pass-2 cut at this boundary.
func (ec *epochConfig) checkpoint(events uint64) ([]byte, error) {
	bs, err := ec.builder.State()
	if err != nil {
		return nil, err
	}
	ck := Checkpoint{
		Epoch:      ec.epochN,
		Events:     events,
		VM:         ec.m.Snapshot(),
		Vector:     ec.p.Vector.State(),
		Tree:       ec.p.Tree.State(),
		Translator: ec.p.tr.State(),
		DDG:        bs,
	}
	return json.Marshal(&ck)
}
