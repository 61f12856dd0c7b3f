package ddg

import (
	"polyprof/internal/fold"
	"polyprof/internal/iiv"
	"polyprof/internal/isa"
	"polyprof/internal/obs"
	"polyprof/internal/trace"
)

// ContextTable interns the graph's vertices: one Stmt per (context,
// block) and one Instr per (context, instruction), numbered in
// first-appearance order.  Per-context state lives in a slice indexed
// by the context handle's per-run ID and is never rebuilt, so resolving
// a vertex of a context already seen costs two slice indexings and no
// hashing or allocation.  Both dependence engines intern through it
// (inside their Front), which is what keeps their vertex IDs identical.
//
// Every vertex is created with its fold streams: a statement's domain
// folder and an instruction's value and access folders, fed by whichever
// Shard owns the stream.  The zero value is ready to use and creates
// folders with default options.
type ContextTable struct {
	// Stmts and Instrs hold every vertex in ID order.
	Stmts  []*Stmt
	Instrs []*Instr

	ctxs []*ctxVerts // by iiv.Ctx.ID
	// pending holds restored contexts by key until a handle first names
	// them: IDs are per-run, keys are what checkpoints store.
	pending map[string]*ctxVerts

	// Folder options: the metrics scope and the stride-detection
	// ablation (Options.Obs, Options.NoStrideDetection).
	obs       obs.Scope
	noStrides bool
}

// ctxVerts is one context's vertices, by block.  A context is a schedule
// tree leaf, which ends in the block it runs, so blocks almost always
// holds a single entry.
type ctxVerts struct {
	blocks []*blockVerts
}

type blockVerts struct {
	stmt   *Stmt
	instrs []*Instr // by InstrRef.Index
}

// Resolve returns the statement and instruction vertices of one
// executed instruction, creating them on first sight.  depth is the
// context's loop depth (the coordinate count).
func (t *ContextTable) Resolve(ctx iiv.Ctx, ref trace.InstrRef, in *isa.Instr, depth int) (*Stmt, *Instr) {
	bv := t.block(ctx, ref.Block, depth)
	if idx := int(ref.Index); idx < len(bv.instrs) {
		if i := bv.instrs[idx]; i != nil {
			return bv.stmt, i
		}
	}
	return bv.stmt, t.newInstr(ctx.Key, ref, in, bv)
}

func (t *ContextTable) block(ctx iiv.Ctx, blk isa.BlockID, depth int) *blockVerts {
	if ctx.ID < len(t.ctxs) {
		if cv := t.ctxs[ctx.ID]; cv != nil {
			for _, bv := range cv.blocks {
				if bv.stmt.Block == blk {
					return bv
				}
			}
		}
	}
	return t.newBlock(ctx, blk, depth)
}

// newBlock is the slow path of block: the first event of a context in
// this run, or of a block under it.
func (t *ContextTable) newBlock(ctx iiv.Ctx, blk isa.BlockID, depth int) *blockVerts {
	for len(t.ctxs) <= ctx.ID {
		t.ctxs = append(t.ctxs, nil)
	}
	cv := t.ctxs[ctx.ID]
	if cv == nil {
		cv = t.pending[ctx.Key]
		delete(t.pending, ctx.Key)
		if cv == nil {
			cv = &ctxVerts{}
		}
		t.ctxs[ctx.ID] = cv
		for _, bv := range cv.blocks {
			if bv.stmt.Block == blk {
				return bv
			}
		}
	}
	s := &Stmt{ID: len(t.Stmts), Block: blk, Ctx: ctx.Key, Depth: depth, folder: t.newFolder(depth, 0)}
	t.Stmts = append(t.Stmts, s)
	bv := &blockVerts{stmt: s}
	cv.blocks = append(cv.blocks, bv)
	return bv
}

func (t *ContextTable) newInstr(ctx string, ref trace.InstrRef, in *isa.Instr, bv *blockVerts) *Instr {
	i := newInstr(len(t.Instrs), ref, ctx, in, bv.stmt)
	if i.hasValue {
		i.valueFolder = t.newFolder(i.Depth, 1)
	}
	if i.hasAccess {
		i.accessFolder = t.newFolder(i.Depth, 1)
	}
	t.Instrs = append(t.Instrs, i)
	bv.setInstr(i)
	return i
}

// newFolder creates one vertex fold stream.
func (t *ContextTable) newFolder(dim, labelW int) *fold.Folder {
	f := fold.NewFolder(dim, labelW)
	f.Obs = t.obs
	if t.noStrides {
		f.DetectStrides = false
	}
	return f
}

func (bv *blockVerts) setInstr(i *Instr) {
	idx := int(i.Ref.Index)
	for len(bv.instrs) <= idx {
		bv.instrs = append(bv.instrs, nil)
	}
	bv.instrs[idx] = i
}

// restoreStmt appends a checkpointed statement; it is re-bound to a
// context ID when a handle first names its context.
func (t *ContextTable) restoreStmt(s *Stmt) {
	if t.pending == nil {
		t.pending = map[string]*ctxVerts{}
	}
	cv := t.pending[s.Ctx]
	if cv == nil {
		cv = &ctxVerts{}
		t.pending[s.Ctx] = cv
	}
	cv.blocks = append(cv.blocks, &blockVerts{stmt: s})
	t.Stmts = append(t.Stmts, s)
}

// restoreInstr appends a checkpointed instruction under its statement,
// which restoreStmt must already have seen.
func (t *ContextTable) restoreInstr(i *Instr) {
	for _, bv := range t.pending[i.Stmt.Ctx].blocks {
		if bv.stmt == i.Stmt {
			bv.setInstr(i)
			break
		}
	}
	t.Instrs = append(t.Instrs, i)
}
