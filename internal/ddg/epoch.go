// Epoch support for streaming profiling, in three parts:
//
//   - Clone: a deep copy of the whole builder so a provisional report
//     can run the (destructive) FinishChecked pipeline at an epoch
//     boundary while the live builder keeps folding the stream.
//
//   - State/RestoreBuilder: exact checkpoint serialization.  Vertices
//     are keyed by (context key, block/instruction ref) — both
//     re-derivable from the program image — and folders persist via the
//     fold state format, so a restored builder continues the stream
//     bit-for-bit.  Context IDs are per-run and not stored: restored
//     contexts re-bind to an ID when a handle first names their key.
//
//   - Fold-and-release (Options.Stream): at every epoch boundary,
//     shadow records untouched during the closing epoch fold into stale
//     per-range summaries and their bytes return to the budget.  A
//     later access whose exact counterpart record was released pulls a
//     conservative bounding-box dependence from the stale summary —
//     over-approximate in the sound direction (only ADDS dependences),
//     and distinct from budget degradation: the graph is not marked
//     Degraded, because no information was lost that the summaries do
//     not cover.
package ddg

import (
	"fmt"

	"polyprof/internal/fold"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/trace"
)

// ---------------------------------------------------------------------
// Provisional clone.

// Clone deep-copies the builder so FinishChecked can run on the copy
// (for a provisional epoch report) without disturbing the live stream.
// The clone carries no budget — the coarse pairing in its Finish must
// not re-charge the live run's edge accounting — and publishes metrics
// into a detached, disabled registry.
func (b *Builder) Clone() *Builder {
	opts := b.opts
	opts.Budget = nil
	opts.Obs = obs.NewRegistry().Scope()
	c := &Builder{
		Front: Front{
			prog:         b.prog,
			totalOps:     b.totalOps,
			memOps:       b.memOps,
			fpOps:        b.fpOps,
			curRegWords:  b.curRegWords,
			peakRegWords: b.peakRegWords,
		},
		Shard:         Shard{opts: opts},
		epochN:        b.epochN,
		releasedBytes: b.releasedBytes,
		faultErr:      b.faultErr,
		pinTripped:    b.opts.Budget.Tripped(),
	}
	sm := make(map[*Stmt]*Stmt, len(b.vt.Stmts))
	for _, s := range b.vt.Stmts {
		cs := &Stmt{ID: s.ID, Block: s.Block, Ctx: s.Ctx, Depth: s.Depth, Count: s.Count, folder: s.folder.Clone()}
		cs.folder.Obs = opts.Obs
		sm[s] = cs
		c.vt.Stmts = append(c.vt.Stmts, cs)
	}
	im := make(map[*Instr]*Instr, len(b.vt.Instrs))
	for _, i := range b.vt.Instrs {
		ci := new(Instr)
		*ci = *i
		ci.Stmt = sm[i.Stmt]
		if i.valueFolder != nil {
			ci.valueFolder = i.valueFolder.Clone()
			ci.valueFolder.Obs = opts.Obs
		}
		if i.accessFolder != nil {
			ci.accessFolder = i.accessFolder.Clone()
			ci.accessFolder.Obs = opts.Obs
		}
		im[i] = ci
		c.vt.Instrs = append(c.vt.Instrs, ci)
	}
	for _, d := range b.allDeps {
		cd, _ := c.bundle(im[d.Src], im[d.Dst], d.Kind)
		cd.Count, cd.Degraded = d.Count, d.Degraded
		if d.folder != nil {
			cd.folder = d.folder.Clone()
			cd.folder.Obs = opts.Obs
		}
		if d.box != nil {
			cd.box = cloneBox(d.box)
		}
	}
	if b.coarse != nil {
		c.coarse = &coarseState{ranges: map[int64]*coarseRange{}, events: b.coarse.events}
		for k, rg := range b.coarse.ranges {
			c.coarse.ranges[k] = cloneRange(rg, im)
		}
	}
	if b.stale != nil {
		c.stale = make(map[int64]*coarseRange, len(b.stale))
		for k, rg := range b.stale {
			c.stale[k] = cloneRange(rg, im)
		}
	}
	// The context index and shadow/lastRead/frames/pendings are only
	// consulted by the event hot path, never by Finish; the clone exists
	// to be finished, so they stay empty.
	return c
}

func cloneBox(b *coordBox) *coordBox {
	return &coordBox{
		lo: append([]int64(nil), b.lo...),
		hi: append([]int64(nil), b.hi...),
		n:  b.n,
	}
}

func cloneRange(rg *coarseRange, im map[*Instr]*Instr) *coarseRange {
	out := &coarseRange{writers: map[*Instr]*coordBox{}, readers: map[*Instr]*coordBox{}}
	for i, box := range rg.writers {
		out.writers[im[i]] = cloneBox(box)
	}
	for i, box := range rg.readers {
		out.readers[im[i]] = cloneBox(box)
	}
	return out
}

// ---------------------------------------------------------------------
// Streaming fold-and-release.

// staleDeps pulls conservative dependences from the stale summary of
// addr's range for the counterpart records the exact tables no longer
// hold.  needW asks for producer-side edges (Output for a write, flow
// for a read); needR asks for released last-readers (Anti, writes
// only).  Entries from other addresses in the same range over-match —
// sound, the summary only ever adds edges.
func (b *Builder) staleDeps(instr *Instr, coords []int64, addr int64, needW, needR, write bool) {
	if !needW && !needR {
		return
	}
	rg := b.stale[addr>>coarseRangeShift]
	if rg == nil {
		return
	}
	if needW && len(rg.writers) > 0 {
		kind := FlowMem
		track := true
		if write {
			kind = Output
			track = b.opts.TrackOutput
		}
		if track {
			for _, src := range sortedByID(rg.writers) {
				b.addStaleDep(src, instr, kind, coords)
			}
		}
	}
	if needR && write && b.opts.TrackAnti && len(rg.readers) > 0 {
		for _, src := range sortedByID(rg.readers) {
			b.addStaleDep(src, instr, Anti, coords)
		}
	}
}

// addStaleDep merges one stale-summary edge: a bounding-box piece in
// consumer coordinates, like a coarse edge, but NOT marked Degraded —
// releasing was a deliberate accuracy/memory trade, not a budget trip.
func (b *Builder) addStaleDep(src, dst *Instr, kind Kind, dstCoords []int64) {
	d, created := b.bundle(src, dst, kind)
	if created {
		b.opts.Budget.GrantEdges(1)
	}
	d.Count++
	if d.box == nil {
		d.box = &coordBox{}
	}
	d.box.extend(dstCoords)
}

// ReleaseEpoch closes one epoch in streaming mode: every shadow record
// not touched during the closing epoch folds into its stale summary and
// returns its bytes to the budget; records touched this epoch survive
// into the next.  Reports the bytes released (0 when not streaming).
// Called by the core epoch driver with the VM paused.
func (b *Builder) ReleaseEpoch() uint64 {
	if b.stale == nil {
		return 0
	}
	var freed uint64
	release := func(recs []writerRec, write bool) {
		for a := range recs {
			rec := &recs[a]
			if rec.instr == nil || rec.seen >= b.epochN {
				continue
			}
			noteRange(b.stale, int64(a), rec.instr, rec.coords, write)
			freed += rec.grant
			*rec = writerRec{}
		}
	}
	release(b.shadow, true)
	release(b.lastRead, false)
	b.epochN++
	if freed > 0 {
		b.releasedBytes += freed
		b.opts.Budget.ReleaseShadow(freed)
	}
	return freed
}

// ---------------------------------------------------------------------
// Checkpoint serialization.

// RecState is one live shadow record (last writer or last reader).
type RecState struct {
	Addr   int64   `json:"a"`
	Instr  int     `json:"i"`
	Coords []int64 `json:"c,omitempty"`
	Grant  uint64  `json:"g,omitempty"`
}

// RegState is one occupied register-writer slot.
type RegState struct {
	Slot   int     `json:"s"`
	Instr  int     `json:"i"`
	Coords []int64 `json:"c,omitempty"`
}

// FrameDepState is one mirrored call frame.
type FrameDepState struct {
	NumRegs int        `json:"n"`
	Regs    []RegState `json:"regs,omitempty"`
	RetDst  isa.Reg    `json:"retdst"`
}

// StmtState is one statement vertex with its live domain folder.
type StmtState struct {
	Block  isa.BlockID      `json:"blk"`
	Ctx    string           `json:"ctx"`
	Depth  int              `json:"depth"`
	Count  uint64           `json:"count"`
	Folder fold.FolderState `json:"folder"`
}

// InstrState is one instruction vertex with its live folders.
type InstrState struct {
	Ref    trace.InstrRef    `json:"ref"`
	Ctx    string            `json:"ctx"`
	Stmt   int               `json:"stmt"`
	Count  uint64            `json:"count"`
	Value  *fold.FolderState `json:"value,omitempty"`
	Access *fold.FolderState `json:"access,omitempty"`
}

// BoxState serializes a coordinate bounding box.
type BoxState struct {
	Lo []int64 `json:"lo,omitempty"`
	Hi []int64 `json:"hi,omitempty"`
	N  uint64  `json:"n"`
}

func boxState(b *coordBox) BoxState {
	return BoxState{Lo: append([]int64(nil), b.lo...), Hi: append([]int64(nil), b.hi...), N: b.n}
}

func restoreBox(s BoxState) *coordBox {
	return &coordBox{lo: append([]int64(nil), s.Lo...), hi: append([]int64(nil), s.Hi...), n: s.N}
}

// DepState is one dependence bundle.
type DepState struct {
	Src      int                    `json:"src"`
	Dst      int                    `json:"dst"`
	Kind     uint8                  `json:"kind"`
	Count    uint64                 `json:"count"`
	Degraded bool                   `json:"degraded,omitempty"`
	Folder   *fold.MultiFolderState `json:"folder,omitempty"`
	Box      *BoxState              `json:"box,omitempty"`
}

// StaleInstrState is one instruction's box inside a stale range.
type StaleInstrState struct {
	Instr int      `json:"i"`
	Box   BoxState `json:"box"`
}

// StaleRangeState is one stale range summary.
type StaleRangeState struct {
	Key     int64             `json:"k"`
	Writers []StaleInstrState `json:"w,omitempty"`
	Readers []StaleInstrState `json:"r,omitempty"`
}

// BuilderState is the full serializable pass-2 dependence state at an
// epoch boundary.
type BuilderState struct {
	Stmts       []StmtState       `json:"stmts"`  // in ID order
	Instrs      []InstrState      `json:"instrs"` // in ID order
	Deps        []DepState        `json:"deps,omitempty"`
	Shadow      []RecState        `json:"shadow,omitempty"`
	LastRead    []RecState        `json:"lastread,omitempty"`
	Frames      []FrameDepState   `json:"frames"`
	PendingN    int               `json:"pn,omitempty"`
	PendingArgs []RegState        `json:"pargs,omitempty"`
	PendingDst  isa.Reg           `json:"pdst"`
	PendingRet  *RegState         `json:"pret,omitempty"`
	TotalOps    uint64            `json:"total"`
	MemOps      uint64            `json:"mem"`
	FPOps       uint64            `json:"fp"`
	PeakRegs    int               `json:"peakregs"`
	EpochN      uint64            `json:"epoch,omitempty"`
	Released    uint64            `json:"released,omitempty"`
	Stale       []StaleRangeState `json:"stale,omitempty"`
}

func recStates(recs []writerRec) []RecState {
	var out []RecState
	for a := range recs {
		if r := &recs[a]; r.instr != nil {
			out = append(out, RecState{Addr: int64(a), Instr: r.instr.ID,
				Coords: append([]int64(nil), r.coords...), Grant: r.grant})
		}
	}
	return out
}

func staleStates(stale map[int64]*coarseRange) []StaleRangeState {
	var out []StaleRangeState
	for k, rg := range stale {
		s := StaleRangeState{Key: k}
		for _, i := range sortedByID(rg.writers) {
			s.Writers = append(s.Writers, StaleInstrState{Instr: i.ID, Box: boxState(rg.writers[i])})
		}
		for _, i := range sortedByID(rg.readers) {
			s.Readers = append(s.Readers, StaleInstrState{Instr: i.ID, Box: boxState(rg.readers[i])})
		}
		out = append(out, s)
	}
	sortStale(out)
	return out
}

func sortStale(s []StaleRangeState) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Key < s[j-1].Key; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Checkpointable reports whether State would succeed: degraded runs
// (coarse mode, tripped budgets, latched faults) are not serializable.
func (b *Builder) Checkpointable() bool {
	return b.faultErr == nil && b.coarse == nil && len(b.opts.Budget.Tripped()) == 0
}

// State captures the builder for checkpointing.  Degraded runs refuse:
// coarse-mode state is address-granular and monotone, so resuming it
// under a fresh budget would double-degrade; the epoch driver simply
// stops checkpointing once a budget trips.
func (b *Builder) State() (*BuilderState, error) {
	if b.faultErr != nil {
		return nil, b.faultErr
	}
	if b.coarse != nil || len(b.opts.Budget.Tripped()) > 0 {
		return nil, fmt.Errorf("ddg: run degraded under budget pressure; not checkpointable")
	}
	s := &BuilderState{
		TotalOps: b.totalOps, MemOps: b.memOps, FPOps: b.fpOps,
		PeakRegs: b.peakRegWords, EpochN: b.epochN, Released: b.releasedBytes,
		Shadow: recStates(b.shadow), LastRead: recStates(b.lastRead),
		PendingDst: b.pendingDst,
	}
	for _, st := range b.vt.Stmts {
		s.Stmts = append(s.Stmts, StmtState{
			Block: st.Block, Ctx: st.Ctx, Depth: st.Depth, Count: st.Count,
			Folder: st.folder.State(),
		})
	}
	for _, i := range b.vt.Instrs {
		is := InstrState{Ref: i.Ref, Ctx: i.Ctx, Stmt: i.Stmt.ID, Count: i.Count}
		if i.valueFolder != nil {
			v := i.valueFolder.State()
			is.Value = &v
		}
		if i.accessFolder != nil {
			v := i.accessFolder.State()
			is.Access = &v
		}
		s.Instrs = append(s.Instrs, is)
	}
	for _, d := range b.allDeps {
		ds := DepState{Src: d.Src.ID, Dst: d.Dst.ID, Kind: uint8(d.Kind), Count: d.Count, Degraded: d.Degraded}
		if d.folder != nil {
			f := d.folder.State()
			ds.Folder = &f
		}
		if d.box != nil {
			bx := boxState(d.box)
			ds.Box = &bx
		}
		s.Deps = append(s.Deps, ds)
	}
	for fi := range b.frames {
		fr := &b.frames[fi]
		fs := FrameDepState{NumRegs: len(fr.regw), RetDst: fr.retDst}
		for slot := range fr.regw {
			if w := &fr.regw[slot]; w.instr != nil {
				fs.Regs = append(fs.Regs, RegState{Slot: slot, Instr: w.instr.ID,
					Coords: append([]int64(nil), w.coords...)})
			}
		}
		s.Frames = append(s.Frames, fs)
	}
	s.PendingN = len(b.pendingArgs)
	for slot := range b.pendingArgs {
		if w := &b.pendingArgs[slot]; w.instr != nil {
			s.PendingArgs = append(s.PendingArgs, RegState{Slot: slot, Instr: w.instr.ID,
				Coords: append([]int64(nil), w.coords...)})
		}
	}
	if b.pendingRet.instr != nil {
		s.PendingRet = &RegState{Instr: b.pendingRet.instr.ID,
			Coords: append([]int64(nil), b.pendingRet.coords...)}
	}
	if b.stale != nil {
		s.Stale = staleStates(b.stale)
	}
	return s, nil
}

// RestoreBuilder rebuilds a builder from checkpointed state against the
// re-materialized program.  The restored builder re-charges the budget
// for every live record and edge, so resumed accounting matches the
// checkpointed run's.
func RestoreBuilder(prog *isa.Program, opts Options, s *BuilderState) (*Builder, error) {
	b := NewBuilder(prog, opts)
	b.totalOps, b.memOps, b.fpOps = s.TotalOps, s.MemOps, s.FPOps
	if s.EpochN > 0 {
		b.epochN = s.EpochN
	}
	b.releasedBytes = s.Released
	for _, ss := range s.Stmts {
		f, err := fold.RestoreFolder(ss.Folder)
		if err != nil {
			return nil, err
		}
		f.Obs = opts.Obs
		b.vt.restoreStmt(&Stmt{ID: len(b.vt.Stmts), Block: ss.Block, Ctx: ss.Ctx, Depth: ss.Depth, Count: ss.Count, folder: f})
	}
	for _, is := range s.Instrs {
		if is.Stmt < 0 || is.Stmt >= len(b.vt.Stmts) {
			return nil, fmt.Errorf("ddg: checkpoint instr references unknown stmt %d", is.Stmt)
		}
		if is.Ref.Block < 0 || int(is.Ref.Block) >= len(prog.Blocks) {
			return nil, fmt.Errorf("ddg: checkpoint instr references unknown block %d", is.Ref.Block)
		}
		blk := prog.Block(is.Ref.Block)
		if is.Ref.Index < 0 || int(is.Ref.Index) >= len(blk.Code) {
			return nil, fmt.Errorf("ddg: checkpoint instr index %d out of range in block %q", is.Ref.Index, blk.Name)
		}
		stmt := b.vt.Stmts[is.Stmt]
		if stmt.Block != is.Ref.Block || stmt.Ctx != is.Ctx {
			return nil, fmt.Errorf("ddg: checkpoint instr %v under %q does not belong to stmt %d", is.Ref, is.Ctx, is.Stmt)
		}
		in := &blk.Code[is.Ref.Index]
		i := newInstr(len(b.vt.Instrs), is.Ref, is.Ctx, in, stmt)
		i.Count = is.Count
		if i.hasValue {
			if is.Value == nil {
				return nil, fmt.Errorf("ddg: checkpoint instr I%d lost its value folder", i.ID)
			}
			f, err := fold.RestoreFolder(*is.Value)
			if err != nil {
				return nil, err
			}
			f.Obs = opts.Obs
			i.valueFolder = f
		}
		if i.hasAccess {
			if is.Access == nil {
				return nil, fmt.Errorf("ddg: checkpoint instr I%d lost its access folder", i.ID)
			}
			f, err := fold.RestoreFolder(*is.Access)
			if err != nil {
				return nil, err
			}
			f.Obs = opts.Obs
			i.accessFolder = f
		}
		b.vt.restoreInstr(i)
	}
	instrAt := func(id int) (*Instr, error) {
		if id < 0 || id >= len(b.vt.Instrs) {
			return nil, fmt.Errorf("ddg: checkpoint references unknown instr I%d", id)
		}
		return b.vt.Instrs[id], nil
	}
	for _, ds := range s.Deps {
		src, err := instrAt(ds.Src)
		if err != nil {
			return nil, err
		}
		dst, err := instrAt(ds.Dst)
		if err != nil {
			return nil, err
		}
		d, created := b.bundle(src, dst, Kind(ds.Kind))
		if !created {
			return nil, fmt.Errorf("ddg: checkpoint repeats dependence I%d -> I%d (%v)", ds.Src, ds.Dst, d.Kind)
		}
		d.Count, d.Degraded = ds.Count, ds.Degraded
		if ds.Folder != nil {
			mf, err := fold.RestoreMultiFolder(*ds.Folder)
			if err != nil {
				return nil, err
			}
			mf.Obs = opts.Obs
			d.folder = mf
		}
		if ds.Box != nil {
			d.box = restoreBox(*ds.Box)
		}
		opts.Budget.GrantEdges(1)
	}
	restoreRecs := func(dst []writerRec, src []RecState) error {
		for _, rs := range src {
			if rs.Addr < 0 || rs.Addr >= int64(len(dst)) {
				return fmt.Errorf("ddg: checkpoint shadow address %d out of range", rs.Addr)
			}
			i, err := instrAt(rs.Instr)
			if err != nil {
				return err
			}
			grant := rs.Grant
			if grant == 0 {
				grant = recBytes(len(rs.Coords))
			}
			if !opts.Budget.GrantShadow(grant) {
				b.TripShadow()
			}
			dst[rs.Addr] = writerRec{instr: i, coords: append([]int64(nil), rs.Coords...),
				seen: b.epochN, grant: grant}
		}
		return nil
	}
	if err := restoreRecs(b.shadow, s.Shadow); err != nil {
		return nil, err
	}
	if err := restoreRecs(b.lastRead, s.LastRead); err != nil {
		return nil, err
	}
	b.frames = b.frames[:0]
	b.curRegWords = 0
	for _, fs := range s.Frames {
		fr := frame{regw: make([]writerRec, fs.NumRegs), retDst: fs.RetDst}
		for _, rs := range fs.Regs {
			if rs.Slot < 0 || rs.Slot >= fs.NumRegs {
				return nil, fmt.Errorf("ddg: checkpoint register slot %d out of range", rs.Slot)
			}
			i, err := instrAt(rs.Instr)
			if err != nil {
				return nil, err
			}
			fr.regw[rs.Slot] = writerRec{instr: i, coords: append([]int64(nil), rs.Coords...)}
		}
		b.frames = append(b.frames, fr)
		b.curRegWords += fs.NumRegs
	}
	if len(b.frames) == 0 {
		return nil, fmt.Errorf("ddg: checkpoint has no frames")
	}
	b.peakRegWords = s.PeakRegs
	if b.curRegWords > b.peakRegWords {
		b.peakRegWords = b.curRegWords
	}
	b.pendingArgs = make([]writerRec, s.PendingN)
	for _, rs := range s.PendingArgs {
		if rs.Slot < 0 || rs.Slot >= s.PendingN {
			return nil, fmt.Errorf("ddg: checkpoint pending-arg slot %d out of range", rs.Slot)
		}
		i, err := instrAt(rs.Instr)
		if err != nil {
			return nil, err
		}
		b.pendingArgs[rs.Slot] = writerRec{instr: i, coords: append([]int64(nil), rs.Coords...)}
	}
	b.pendingDst = s.PendingDst
	if s.PendingRet != nil {
		i, err := instrAt(s.PendingRet.Instr)
		if err != nil {
			return nil, err
		}
		b.pendingRet = writerRec{instr: i, coords: append([]int64(nil), s.PendingRet.Coords...)}
	}
	for _, rg := range s.Stale {
		if b.stale == nil {
			return nil, fmt.Errorf("ddg: checkpoint has stale summaries but streaming is off")
		}
		dst := &coarseRange{writers: map[*Instr]*coordBox{}, readers: map[*Instr]*coordBox{}}
		for _, ws := range rg.Writers {
			i, err := instrAt(ws.Instr)
			if err != nil {
				return nil, err
			}
			dst.writers[i] = restoreBox(ws.Box)
		}
		for _, rs := range rg.Readers {
			i, err := instrAt(rs.Instr)
			if err != nil {
				return nil, err
			}
			dst.readers[i] = restoreBox(rs.Box)
		}
		b.stale[rg.Key] = dst
	}
	return b, nil
}
