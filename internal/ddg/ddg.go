// Package ddg builds the dynamic dependence graph (paper Sec. 4): one
// vertex per dynamic instruction, one edge per data dependence, with
// every vertex tagged by its dynamic interprocedural iteration vector.
// Vertices and edges are never materialized individually — each
// (statement, context) stream and each (producer, consumer) dependence
// stream is folded on the fly (Sec. 5), so memory stays proportional to
// the folded representation, not to the trace.
//
// Data dependencies are tracked through two mechanisms, as in the
// paper's "Instrumentation II":
//
//   - a shadow memory records the last dynamic instruction that wrote
//     each word (flow deps), the previous writer (output deps) and the
//     last reader (anti deps, last-reader approximation);
//   - per-frame register tables record the producing instruction of
//     every live register value, with call arguments and return values
//     linked across frames.
package ddg

import (
	"fmt"
	"sort"

	"polyprof/internal/budget"
	"polyprof/internal/fold"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/trace"
)

// Kind classifies dependence edges.
type Kind uint8

// Dependence kinds.
const (
	FlowMem Kind = iota // read after write through memory
	FlowReg             // read after write through a register
	Output              // write after write through memory
	Anti                // write after read through memory
)

func (k Kind) String() string {
	switch k {
	case FlowMem:
		return "flow"
	case FlowReg:
		return "reg"
	case Output:
		return "output"
	case Anti:
		return "anti"
	}
	return "dep(?)"
}

// Stmt is a (basic block, context) pair: the folding granularity for
// iteration domains.  All instructions of the block share its domain.
type Stmt struct {
	ID    int
	Block isa.BlockID
	Ctx   string
	Depth int
	Count uint64 // dynamic executions of the block under this context

	folder *fold.Folder
	Domain fold.Piece // valid after Finish
}

// Instr is a static instruction in a specific context; the unit for
// value (SCEV) and access (stride) folding and the endpoint of
// dependence edges.
type Instr struct {
	ID    int
	Ref   trace.InstrRef
	Ctx   string
	Depth int
	Op    isa.Opcode
	Loc   isa.SrcLoc
	Stmt  *Stmt
	Count uint64

	valueFolder  *fold.Folder // int-producing instructions
	accessFolder *fold.Folder // memory instructions (label = address)
	hasValue     bool
	hasAccess    bool

	Value  fold.Piece // valid after Finish when valueFolder != nil
	Access fold.Piece // valid after Finish when accessFolder != nil

	// IsSCEV marks instructions whose produced values folded to an
	// affine function of the iteration vector (scalar evolutions); their
	// dependence chains are removed from the DDG per Sec. 5.
	IsSCEV bool
}

// HasValue reports whether the instruction produced foldable integer
// values.
func (i *Instr) HasValue() bool { return i.hasValue }

// HasAccess reports whether the instruction accessed memory.
func (i *Instr) HasAccess() bool { return i.hasAccess }

// newInstr constructs an instruction vertex without folders, classifying
// it as value-producing and/or memory-accessing.  Every vertex comes
// from here, through ContextTable or a checkpoint restore, which keeps
// HasValue/HasAccess — and therefore the fold-stream census and SCEV
// candidacy — identical between engines.
func newInstr(id int, ref trace.InstrRef, ctx string, in *isa.Instr, stmt *Stmt) *Instr {
	i := &Instr{
		ID:    id,
		Ref:   ref,
		Ctx:   ctx,
		Depth: stmt.Depth,
		Op:    in.Op,
		Loc:   in.Loc,
		Stmt:  stmt,
	}
	if in.Op.ProducesInt() && in.Dst != isa.NoReg {
		i.hasValue = true
	}
	if in.Op.IsMem() {
		i.hasAccess = true
	}
	return i
}

// Dep is a folded dependence-edge bundle between two instruction
// contexts.
type Dep struct {
	Src, Dst *Instr
	Kind     Kind
	Count    uint64

	// Degraded marks bundles holding an over-approximated coarse piece
	// produced under budget pressure (see degrade.go); their final
	// piece has no affine function, which the scheduler treats as a
	// star dependence.
	Degraded bool

	folder *fold.MultiFolder
	box    *coordBox // coarse consumer box, merged into Pieces at Finish
	// Pieces folds the dependence as a union: each piece's domain is a
	// set of consumer coordinates and its Fn maps them to the producer
	// coordinates.  Piecewise-affine dependencies (in-place stencils,
	// boundary clamps) need more than one piece.
	Pieces []fold.Piece
}

func (d *Dep) String() string {
	return fmt.Sprintf("%v: I%d -> I%d (%d pts, %d pieces)", d.Kind, d.Src.ID, d.Dst.ID, d.Count, len(d.Pieces))
}

// Piece returns the first (dominant) piece, for single-piece consumers.
func (d *Dep) Piece() fold.Piece {
	if len(d.Pieces) == 0 {
		return fold.Piece{}
	}
	return d.Pieces[0]
}

// Options tunes the builder.
type Options struct {
	// TrackAnti enables write-after-read edges (last-reader
	// approximation).
	TrackAnti bool
	// TrackOutput enables write-after-write edges.
	TrackOutput bool
	// TrackReg enables register flow edges.
	TrackReg bool
	// NoStrideDetection disables the lattice folding extension
	// (ablation: the paper's published folder, which over-approximates
	// strided domains).
	NoStrideDetection bool
	// Obs is the span-context the builder publishes its metrics into;
	// the zero Scope targets the process-wide default registry.
	Obs obs.Scope
	// Budget, when set, bounds shadow-memory bytes and dependence
	// edges.  Exhaustion degrades the graph to coarse summaries (see
	// degrade.go) instead of failing the run.
	Budget *budget.Budget
	// Stream enables epoch fold-and-release (epoch.go): shadow records
	// untouched for a full epoch fold into conservative stale summaries
	// and return their bytes to the budget, so a trace far larger than
	// MaxShadowBytes profiles without tripping degradation.  Set by the
	// streaming driver in core when both an epoch size and a shadow
	// budget are configured.
	Stream bool
}

// DefaultOptions tracks everything with the lattice extension enabled.
func DefaultOptions() Options {
	return Options{TrackAnti: true, TrackOutput: true, TrackReg: true}
}

type writerRec struct {
	instr  *Instr
	coords []int64
	// seen is the epoch of the last touch and grant the budget bytes
	// charged for this record; both drive the streaming fold-and-release
	// cycle (epoch.go) and are dead weight otherwise.
	seen  uint64
	grant uint64
}

func (w *writerRec) set(instr *Instr, coords []int64) {
	w.instr = instr
	w.coords = append(w.coords[:0], coords...)
}

type frame struct {
	regw   []writerRec
	retDst isa.Reg // destination register in the caller
}

// inbox is one destination instruction's incoming dependence bundles,
// found by a scan for (source, kind) instead of a hash.  In-degrees are
// small (11 at most over the bundled workloads), but a program can
// raise one up to its static instruction count, so the bundle hit last
// is tried first.
type inbox struct {
	deps []*Dep
	last int
}

// Graph is the folded dynamic dependence graph of one execution.
type Graph struct {
	Stmts  []*Stmt
	Instrs []*Instr
	Deps   []*Dep

	// Degraded is non-nil when a resource budget tripped during the
	// run and parts of the graph were coarsened (see degrade.go).
	Degraded *Degradation

	// TotalOps/MemOps/FPOps are the dynamic operation counters observed
	// by this builder (equal to the VM's when attached to a full run).
	TotalOps uint64
	MemOps   uint64
	FPOps    uint64
}

// Front is the order-sensitive side of dependence building: vertex
// identity, dynamic counts and the register/frame mirror.  It must see
// every event in program order; the sharded engine (internal/parddg)
// runs it on its sequencing goroutine, the Builder inline.
type Front struct {
	prog *isa.Program
	vt   ContextTable

	frames      []frame
	pendingArgs []writerRec
	pendingDst  isa.Reg
	pendingRet  writerRec
	usesBuf     []isa.Reg

	totalOps, memOps, fpOps uint64

	// curRegWords/peakRegWords track the live register-table size
	// (writer records across all mirrored frames); maintained with plain
	// integer arithmetic on call/return so the per-instruction path is
	// untouched, published to the metrics registry in Finish.
	curRegWords, peakRegWords int
}

// NewFront creates the order-sensitive side for one execution of prog;
// its vertices' folders honor opts.
func NewFront(prog *isa.Program, opts Options) *Front {
	f := &Front{prog: prog}
	f.vt.obs, f.vt.noStrides = opts.Obs, opts.NoStrideDetection
	main := prog.Func(prog.Main)
	f.frames = append(f.frames, frame{regw: make([]writerRec, main.NumRegs), retDst: isa.NoReg})
	f.curRegWords = main.NumRegs
	f.peakRegWords = f.curRegWords
	return f
}

func (f *Front) curFrame() *frame { return &f.frames[len(f.frames)-1] }

// OnControl implements core.InstrSink: it mirrors the call stack so
// register dependencies flow through calls and returns.
func (f *Front) OnControl(ev trace.ControlEvent) {
	switch ev.Kind {
	case trace.Call:
		callee := f.prog.Func(ev.Callee)
		fr := frame{regw: make([]writerRec, callee.NumRegs), retDst: f.pendingDst}
		for i, w := range f.pendingArgs {
			if i < len(fr.regw) {
				fr.regw[i] = writerRec{instr: w.instr, coords: append([]int64(nil), w.coords...)}
			}
		}
		f.frames = append(f.frames, fr)
		f.curRegWords += len(fr.regw)
		if f.curRegWords > f.peakRegWords {
			f.peakRegWords = f.curRegWords
		}
	case trace.Return:
		top := f.frames[len(f.frames)-1]
		f.frames = f.frames[:len(f.frames)-1]
		f.curRegWords -= len(top.regw)
		if len(f.frames) > 0 && top.retDst != isa.NoReg && f.pendingRet.instr != nil {
			f.curFrame().regw[top.retDst].set(f.pendingRet.instr, f.pendingRet.coords)
		}
		f.pendingRet = writerRec{}
	}
}

// Enter counts one executed instruction and resolves its statement and
// instruction vertices.
func (f *Front) Enter(ctx iiv.Ctx, coords []int64, ev trace.InstrEvent, in *isa.Instr) (*Stmt, *Instr) {
	f.totalOps++
	if in.Op.IsFP() {
		f.fpOps++
	}
	if ev.Addr >= 0 {
		f.memOps++
	}
	stmt, instr := f.vt.Resolve(ctx, ev.Ref, in, len(coords))
	if ev.Ref.Index == 0 {
		stmt.Count++
	}
	instr.Count++
	return stmt, instr
}

// Uses returns the registers in reads, in a buffer reused by the next
// call.
func (f *Front) Uses(in *isa.Instr) []isa.Reg {
	f.usesBuf = in.Uses(f.usesBuf)
	return f.usesBuf
}

// RegSource returns the producer of register r in the current frame and
// its coordinates, or a nil instruction when none is known.  The
// coordinates are the mirror's own, valid until r is next written.
func (f *Front) RegSource(r isa.Reg) (*Instr, []int64) {
	fr := f.curFrame()
	if int(r) < len(fr.regw) {
		w := &fr.regw[r]
		return w.instr, w.coords
	}
	return nil, nil
}

// Retire updates the mirror after instr executed as in: the writer of
// its destination register, and the call arguments or return value the
// next control event links across frames.  Builder.OnInstr reads and
// updates its frame in place, sharing only link: calling RegSource and
// Retire per event cost it about 3% of fold-heavy throughput.
func (f *Front) Retire(in *isa.Instr, instr *Instr, coords []int64) {
	fr := f.curFrame()
	if in.Op.WritesDst() && in.Dst != isa.NoReg && in.Op != isa.Call && int(in.Dst) < len(fr.regw) {
		fr.regw[in.Dst].set(instr, coords)
	}
	if in.Op == isa.Call || in.Op == isa.Ret {
		f.link(in, fr)
	}
}

// link records the call arguments or return value of in, a Call or
// Ret, for the control event that follows.
func (f *Front) link(in *isa.Instr, fr *frame) {
	if in.Op == isa.Call {
		f.pendingArgs = f.pendingArgs[:0]
		for _, a := range in.Args {
			if int(a) < len(fr.regw) {
				f.pendingArgs = append(f.pendingArgs, fr.regw[a])
			} else {
				f.pendingArgs = append(f.pendingArgs, writerRec{})
			}
		}
		f.pendingDst = in.Dst
		return
	}
	if in.A != isa.NoReg && int(in.A) < len(fr.regw) {
		f.pendingRet = fr.regw[in.A]
	} else {
		f.pendingRet = writerRec{}
	}
}

// Shard is the fold side of dependence building: the per-destination
// bundle table, the coarse range summaries a tripped shadow budget
// falls back to, and the label scratch of the vertex folders.  The
// Builder embeds one; the sharded engine gives each worker its own,
// every fold stream having exactly one owning shard, and Merge unions
// them for the shared finish.
type Shard struct {
	opts    Options
	in      []inbox // incoming bundles by destination instruction ID
	allDeps []*Dep  // every bundle, in creation order

	// coarse is non-nil once the shadow budget tripped (degrade.go).
	coarse *coarseState

	lblBuf []int64
}

// NewShard creates an empty fold side honoring opts.
func NewShard(opts Options) *Shard { return &Shard{opts: opts} }

// bundle returns the (src, dst, kind) dependence bundle.  A new bundle
// is created empty and appended to allDeps; created tells the caller to
// charge the edge budget and set it up.
func (s *Shard) bundle(src, dst *Instr, kind Kind) (d *Dep, created bool) {
	ib := s.inbox(dst)
	if ib.last < len(ib.deps) {
		if d := ib.deps[ib.last]; d.Src == src && d.Kind == kind {
			return d, false
		}
	}
	for i, d := range ib.deps {
		if d.Src == src && d.Kind == kind {
			ib.last = i
			return d, false
		}
	}
	d = &Dep{Src: src, Dst: dst, Kind: kind}
	s.insert(d)
	return d, true
}

func (s *Shard) inbox(dst *Instr) *inbox {
	if n := dst.ID + 1; n > len(s.in) {
		s.in = append(s.in, make([]inbox, n-len(s.in))...)
	}
	return &s.in[dst.ID]
}

// insert appends a bundle known to be new to the table.
func (s *Shard) insert(d *Dep) {
	ib := s.inbox(d.Dst)
	ib.last = len(ib.deps)
	ib.deps = append(ib.deps, d)
	s.allDeps = append(s.allDeps, d)
}

// AddDep folds one dependence point: dst at dstCoords read what src
// produced at srcCoords.
func (s *Shard) AddDep(src *Instr, srcCoords []int64, dst *Instr, dstCoords []int64, kind Kind) {
	d, created := s.bundle(src, dst, kind)
	if created {
		if s.opts.Budget.GrantEdges(1) {
			mf := fold.NewMultiFolder(dst.Depth, src.Depth, fold.DefaultMaxPieces)
			mf.Obs = s.opts.Obs
			d.folder = mf
		} else {
			// Edge budget exhausted: keep the bundle (dropping it would
			// be unsound) but only as a consumer bounding box.
			d.Degraded = true
			d.box = &coordBox{}
		}
	}
	d.Count++
	if d.folder != nil {
		d.folder.Add(dstCoords, srcCoords)
	} else {
		d.box.extend(dstCoords)
	}
}

// AddStmt folds one execution of st into its iteration domain.
func (s *Shard) AddStmt(st *Stmt, coords []int64) { st.folder.Add(coords, nil) }

// AddAccess folds one memory access of i into its access function.
func (s *Shard) AddAccess(i *Instr, coords []int64, addr int64) {
	s.lblBuf = append(s.lblBuf[:0], addr)
	i.accessFolder.Add(coords, s.lblBuf)
}

// AddValue folds one produced integer value of i, for SCEV recognition.
func (s *Shard) AddValue(i *Instr, coords []int64, v int64) {
	s.lblBuf = append(s.lblBuf[:0], v)
	i.valueFolder.Add(coords, s.lblBuf)
}

// Merge assembles a builder for the shared finish from the sharded
// engine's parts: f's vertices and counts, and the union of the shards'
// bundle tables and coarse range summaries.  Their keys are disjoint by
// construction (each bundle and each coarse range has one owning
// shard), so the union is a relabeling, not a conflict merge.  The
// result has no shadow tables: only FinishChecked and Clone apply to it.
func Merge(f *Front, shards []*Shard) *Builder {
	b := &Builder{Front: *f, Shard: Shard{opts: shards[0].opts}}
	for _, s := range shards {
		for _, d := range s.allDeps {
			b.insert(d)
		}
		if s.coarse != nil {
			b.TripShadow()
			b.coarse.events += s.coarse.events
			for k, rg := range s.coarse.ranges {
				b.coarse.ranges[k] = rg
			}
		}
	}
	return b
}

// Builder implements core.InstrSink, constructing a Graph during the
// pass-2 run: a Front and a Shard driven inline, over exact shadow
// memory.
type Builder struct {
	Front
	Shard

	shadow   []writerRec // last writer per word
	lastRead []writerRec // last reader per word

	// faultErr latches an error injected on a path that cannot return
	// one; FinishChecked surfaces it.
	faultErr error

	// Streaming fold-and-release state (epoch.go): stale is non-nil
	// exactly when opts.Stream, epochN counts epoch boundaries from 1,
	// releasedBytes totals the budget bytes returned so far.
	stale         map[int64]*coarseRange
	epochN        uint64
	releasedBytes uint64
	// pinTripped carries the live budget's tripped list into a
	// provisional clone, whose own Budget is nil (see Clone).
	pinTripped []string
}

// NewBuilder creates a DDG builder for one execution of prog.
func NewBuilder(prog *isa.Program, opts Options) *Builder {
	b := &Builder{
		Front:    *NewFront(prog, opts),
		Shard:    Shard{opts: opts},
		shadow:   make([]writerRec, prog.MemWords),
		lastRead: make([]writerRec, prog.MemWords),
	}
	// Charge the fixed record tables up front; a budget too small for
	// them degrades the whole address space from the first event.
	if !opts.Budget.GrantShadow(baseShadowBytes(prog.MemWords)) {
		b.TripShadow()
	}
	if opts.Stream {
		b.stale = map[int64]*coarseRange{}
		b.epochN = 1
	}
	return b
}

// OnInstr implements core.InstrSink.
func (b *Builder) OnInstr(ctx iiv.Ctx, coords []int64, ev trace.InstrEvent, in *isa.Instr) {
	stmt, instr := b.Enter(ctx, coords, ev, in)
	if ev.Ref.Index == 0 {
		b.AddStmt(stmt, coords)
	}
	fr := b.curFrame()

	// Register flow dependencies: one edge per operand whose producer is
	// known.
	if b.opts.TrackReg {
		for _, r := range b.Uses(in) {
			if int(r) < len(fr.regw) {
				if w := &fr.regw[r]; w.instr != nil {
					b.AddDep(w.instr, w.coords, instr, coords, FlowReg)
				}
			}
		}
	}

	// Memory dependencies via shadow memory.  Once the shadow budget
	// trips (b.coarse non-nil) events route through coarseEvent; until
	// then the only extra cost over unbudgeted tracking is a grant call
	// on each address's first touch.
	if ev.Addr >= 0 {
		b.AddAccess(instr, coords, ev.Addr)
		if b.coarse != nil {
			b.coarseEvent(instr, coords, ev.Addr, in.Op.IsMemWrite())
		} else if in.Op.IsMemWrite() {
			w := &b.shadow[ev.Addr]
			wasNew := w.instr == nil
			if wasNew && !b.grantRec(len(coords)) {
				b.coarseEvent(instr, coords, ev.Addr, true)
			} else {
				if !wasNew && b.opts.TrackOutput {
					b.AddDep(w.instr, w.coords, instr, coords, Output)
				}
				r := &b.lastRead[ev.Addr]
				haveReader := r.instr != nil
				if haveReader && b.opts.TrackAnti {
					b.AddDep(r.instr, r.coords, instr, coords, Anti)
				}
				w.set(instr, coords)
				if wasNew {
					w.grant = recBytes(len(coords))
				}
				if b.stale != nil {
					w.seen = b.epochN
					b.staleDeps(instr, coords, ev.Addr, wasNew, !haveReader, true)
				}
			}
		} else {
			r := &b.lastRead[ev.Addr]
			wasNew := r.instr == nil
			if wasNew && !b.grantRec(len(coords)) {
				b.coarseEvent(instr, coords, ev.Addr, false)
			} else {
				w := &b.shadow[ev.Addr]
				haveWriter := w.instr != nil
				if haveWriter {
					b.AddDep(w.instr, w.coords, instr, coords, FlowMem)
				}
				r.set(instr, coords)
				if wasNew {
					r.grant = recBytes(len(coords))
				}
				if b.stale != nil {
					r.seen = b.epochN
					b.staleDeps(instr, coords, ev.Addr, !haveWriter, false, false)
				}
			}
		}
	}

	// Record produced values (for SCEV recognition), then the register
	// writer table and call/return linkage.
	if in.Op.WritesDst() && in.Dst != isa.NoReg && in.Op != isa.Call {
		if instr.valueFolder != nil {
			b.AddValue(instr, coords, ev.Value)
		}
		if int(in.Dst) < len(fr.regw) {
			fr.regw[in.Dst].set(instr, coords)
		}
	}
	if in.Op == isa.Call || in.Op == isa.Ret {
		b.link(in, fr)
	}
}

// Finish folds every stream and runs SCEV elimination, returning the
// folded graph.  It panics on an injected fault or hard-budget abort;
// budget-governed callers use FinishChecked.
func (b *Builder) Finish() *Graph {
	g, err := b.FinishChecked()
	if err != nil {
		panic(err)
	}
	return g
}

// FinishChecked is Finish with error reporting: it surfaces injected
// faults and polls the hard budget (deadline, cancellation) between
// folding batches, so a degenerate graph cannot stall the stage past
// its deadline.
func (b *Builder) FinishChecked() (*Graph, error) {
	if b.faultErr != nil {
		return nil, b.faultErr
	}
	bud := b.opts.Budget
	checkEvery := 0
	check := func() error {
		checkEvery++
		if checkEvery&4095 == 0 {
			return bud.Check("fold")
		}
		return nil
	}
	// Pair coarse ranges first so degraded bundles fold below with
	// everything else.
	b.finishCoarse()
	g := &Graph{
		Stmts:    b.vt.Stmts,
		Instrs:   b.vt.Instrs,
		TotalOps: b.totalOps,
		MemOps:   b.memOps,
		FPOps:    b.fpOps,
	}
	for _, s := range g.Stmts {
		s.Domain = s.folder.Finish()
		s.folder = nil
		if err := check(); err != nil {
			return nil, err
		}
	}
	for _, i := range g.Instrs {
		if i.valueFolder != nil {
			i.Value = i.valueFolder.Finish()
			i.valueFolder = nil
		}
		if i.accessFolder != nil {
			i.Access = i.accessFolder.Finish()
			i.accessFolder = nil
		}
		// SCEV recognition: pure integer ALU whose values are an affine
		// function of the iteration vector.  Assignment (not a latch) so
		// finishing restored or cloned state recomputes the flag.
		i.IsSCEV = i.Op.IsIntALU() && i.Value.Fn != nil
		if err := check(); err != nil {
			return nil, err
		}
	}
	// Fold dependencies, dropping chains into SCEV instructions.
	for _, d := range b.allDeps {
		if d.Src.IsSCEV || d.Dst.IsSCEV {
			continue
		}
		if d.folder != nil {
			d.Pieces = d.folder.Finish()
			d.folder = nil
		}
		if d.box != nil {
			d.Pieces = append(d.Pieces, d.box.piece())
			if d.Count == 0 {
				d.Count = d.box.n
			}
			d.box = nil
		}
		g.Deps = append(g.Deps, d)
		if err := check(); err != nil {
			return nil, err
		}
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
	b.buildDegradation(g)
	b.publishMetrics(g)
	return g, nil
}

// publishMetrics records the builder's structural statistics (shadow
// memory footprint, register-table peak, folded vs. emitted dependence
// edges) in the builder's scoped metrics registry.
func (b *Builder) publishMetrics(g *Graph) {
	sc := b.opts.Obs
	if !sc.Enabled() {
		return
	}
	// Two writer records per program word: last writer + last reader.
	sc.MaxGauge("ddg.shadow.words", 2*b.prog.MemWords)
	sc.MaxGauge("ddg.regtable.peak_words", int64(b.peakRegWords))
	sc.Add("ddg.stmts", uint64(len(g.Stmts)))
	sc.Add("ddg.instrs", uint64(len(g.Instrs)))
	sc.Add("ddg.deps.folded", uint64(len(b.allDeps)))
	sc.Add("ddg.deps.emitted", uint64(len(g.Deps)))
	sc.Add("ddg.deps.scev_elided", uint64(len(b.allDeps)-len(g.Deps)))
	sc.Add("ddg.events.instr", b.totalOps)
	sc.Add("ddg.events.mem", b.memOps)
	var depPoints uint64
	for _, d := range g.Deps {
		depPoints += d.Count
		sc.Observe("ddg.dep.points", d.Count)
	}
	sc.Add("ddg.dep.points.total", depPoints)
	if b.stale != nil {
		sc.Add("ddg.stream.epochs", b.epochN-1)
		sc.Add("ddg.stream.released_bytes", b.releasedBytes)
		sc.Add("ddg.stream.stale_ranges", uint64(len(b.stale)))
	}
	if deg := g.Degraded; deg != nil {
		sc.Add("ddg.degraded.runs", 1)
		sc.Add("ddg.degraded.coarse_deps", uint64(deg.CoarseDeps))
		sc.Add("ddg.degraded.coarse_events", deg.CoarseEvents)
		sc.Add("ddg.degraded.regions", uint64(len(deg.Regions)))
	}
}
