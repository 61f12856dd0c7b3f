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
// it as value-producing and/or memory-accessing.  Every engine's
// vertices come from here (through ContextTable), which keeps
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

type depKey struct {
	src, dst int
	kind     Kind
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

// Builder implements core.InstrSink, constructing a Graph during the
// pass-2 run.
type Builder struct {
	prog *isa.Program
	opts Options

	vt      ContextTable
	deps    map[depKey]*Dep
	allDeps []*Dep

	shadow   []writerRec // last writer per word
	lastRead []writerRec // last reader per word
	frames   []frame

	pendingArgs []writerRec
	pendingDst  isa.Reg
	pendingRet  writerRec

	usesBuf []isa.Reg
	lblBuf  []int64

	totalOps, memOps, fpOps uint64

	// curRegWords/peakRegWords track the live register-table size
	// (writer records across all mirrored frames); maintained with plain
	// integer arithmetic on call/return so the per-instruction path is
	// untouched, published to the metrics registry in Finish.
	curRegWords, peakRegWords int

	// coarse is non-nil once the shadow budget tripped; from then on
	// the memory hot path routes through coarseEvent (degrade.go).
	coarse *coarseState
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
		prog:     prog,
		opts:     opts,
		deps:     map[depKey]*Dep{},
		shadow:   make([]writerRec, prog.MemWords),
		lastRead: make([]writerRec, prog.MemWords),
	}
	b.vt.newFolder = b.newFolder
	main := prog.Func(prog.Main)
	b.frames = append(b.frames, frame{regw: make([]writerRec, main.NumRegs), retDst: isa.NoReg})
	b.curRegWords = main.NumRegs
	b.peakRegWords = b.curRegWords
	// Charge the fixed record tables up front; a budget too small for
	// them degrades the whole address space from the first event.
	if !opts.Budget.GrantShadow(baseShadowBytes(prog.MemWords)) {
		b.tripShadow()
	}
	if opts.Stream {
		b.stale = map[int64]*coarseRange{}
		b.epochN = 1
	}
	return b
}

func (b *Builder) curFrame() *frame { return &b.frames[len(b.frames)-1] }

// newFolder creates a stream folder honoring the builder options.
func (b *Builder) newFolder(dim, labelW int) *fold.Folder {
	f := fold.NewFolder(dim, labelW)
	f.Obs = b.opts.Obs
	if b.opts.NoStrideDetection {
		f.DetectStrides = false
	}
	return f
}

// OnControl implements core.InstrSink: it mirrors the call stack so
// register dependencies flow through calls and returns.
func (b *Builder) OnControl(ev trace.ControlEvent) {
	switch ev.Kind {
	case trace.Call:
		callee := b.prog.Func(ev.Callee)
		f := frame{regw: make([]writerRec, callee.NumRegs), retDst: b.pendingDst}
		for i, w := range b.pendingArgs {
			if i < len(f.regw) {
				f.regw[i] = writerRec{instr: w.instr, coords: append([]int64(nil), w.coords...)}
			}
		}
		b.frames = append(b.frames, f)
		b.curRegWords += len(f.regw)
		if b.curRegWords > b.peakRegWords {
			b.peakRegWords = b.curRegWords
		}
	case trace.Return:
		top := b.frames[len(b.frames)-1]
		b.frames = b.frames[:len(b.frames)-1]
		b.curRegWords -= len(top.regw)
		if len(b.frames) > 0 && top.retDst != isa.NoReg && b.pendingRet.instr != nil {
			b.curFrame().regw[top.retDst].set(b.pendingRet.instr, b.pendingRet.coords)
		}
		b.pendingRet = writerRec{}
	}
}

func (b *Builder) addDep(src *Instr, srcCoords []int64, dst *Instr, dstCoords []int64, kind Kind) {
	key := depKey{src: src.ID, dst: dst.ID, kind: kind}
	d, ok := b.deps[key]
	if !ok {
		d = &Dep{Src: src, Dst: dst, Kind: kind}
		if b.opts.Budget.GrantEdges(1) {
			mf := fold.NewMultiFolder(dst.Depth, src.Depth, fold.DefaultMaxPieces)
			mf.Obs = b.opts.Obs
			d.folder = mf
		} else {
			// Edge budget exhausted: keep the bundle (dropping it would
			// be unsound) but only as a consumer bounding box.
			d.Degraded = true
			d.box = &coordBox{}
		}
		b.deps[key] = d
		b.allDeps = append(b.allDeps, d)
	}
	d.Count++
	if d.folder != nil {
		d.folder.Add(dstCoords, srcCoords)
	} else {
		d.box.extend(dstCoords)
	}
}

// OnInstr implements core.InstrSink.
func (b *Builder) OnInstr(ctx iiv.Ctx, coords []int64, ev trace.InstrEvent, in *isa.Instr) {
	b.totalOps++
	if in.Op.IsFP() {
		b.fpOps++
	}
	stmt, instr := b.vt.Resolve(ctx, ev.Ref, in, len(coords))
	if ev.Ref.Index == 0 {
		stmt.Count++
		stmt.folder.Add(coords, nil)
	}
	instr.Count++

	fr := b.curFrame()

	// Register flow dependencies: one edge per operand whose producer is
	// known.
	if b.opts.TrackReg {
		b.usesBuf = in.Uses(b.usesBuf)
		for _, r := range b.usesBuf {
			if int(r) < len(fr.regw) {
				if w := &fr.regw[r]; w.instr != nil {
					b.addDep(w.instr, w.coords, instr, coords, FlowReg)
				}
			}
		}
	}

	// Memory dependencies via shadow memory.  Once the shadow budget
	// trips (b.coarse non-nil) events route through coarseEvent; until
	// then the only extra cost over unbudgeted tracking is a grant call
	// on each address's first touch.
	if ev.Addr >= 0 {
		b.memOps++
		b.lblBuf = append(b.lblBuf[:0], ev.Addr)
		instr.accessFolder.Add(coords, b.lblBuf)
		if b.coarse != nil {
			b.coarseEvent(instr, coords, ev.Addr, in.Op.IsMemWrite())
		} else if in.Op.IsMemWrite() {
			w := &b.shadow[ev.Addr]
			wasNew := w.instr == nil
			if wasNew && !b.grantRec(len(coords)) {
				b.coarseEvent(instr, coords, ev.Addr, true)
			} else {
				if !wasNew && b.opts.TrackOutput {
					b.addDep(w.instr, w.coords, instr, coords, Output)
				}
				r := &b.lastRead[ev.Addr]
				haveReader := r.instr != nil
				if haveReader && b.opts.TrackAnti {
					b.addDep(r.instr, r.coords, instr, coords, Anti)
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
					b.addDep(w.instr, w.coords, instr, coords, FlowMem)
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

	// Record produced values (for SCEV recognition) and the register
	// writer table.
	if in.Op.WritesDst() && in.Dst != isa.NoReg && in.Op != isa.Call {
		if instr.valueFolder != nil {
			b.lblBuf = append(b.lblBuf[:0], ev.Value)
			instr.valueFolder.Add(coords, b.lblBuf)
		}
		if int(in.Dst) < len(fr.regw) {
			fr.regw[in.Dst].set(instr, coords)
		}
	}

	// Call/return linkage for the frame mirror.
	switch in.Op {
	case isa.Call:
		b.pendingArgs = b.pendingArgs[:0]
		for _, a := range in.Args {
			if int(a) < len(fr.regw) {
				b.pendingArgs = append(b.pendingArgs, fr.regw[a])
			} else {
				b.pendingArgs = append(b.pendingArgs, writerRec{})
			}
		}
		b.pendingDst = in.Dst
	case isa.Ret:
		if in.A != isa.NoReg && int(in.A) < len(fr.regw) {
			b.pendingRet = fr.regw[in.A]
		} else {
			b.pendingRet = writerRec{}
		}
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
	sc.MaxGauge("ddg.shadow.words", int64(len(b.shadow)+len(b.lastRead)))
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
