package iiv

import (
	"fmt"
	"sort"
	"strings"
)

// Ctx is the interned handle of one statement context: the schedule
// tree leaf an instruction executes under.  ID is dense per run (the
// root, the empty context, is 0; every other leaf is numbered in the
// order it first becomes current) so sinks can index per-context state
// by it; Key is the context's vector key, rendered once per leaf.  IDs
// never leave the process: reports, checkpoints and caches name
// contexts by Key, and a restored tree renumbers its leaves.  The zero
// Ctx is the empty context.
type Ctx struct {
	ID  int
	Key string
}

// TreeNode is one node of the dynamic schedule tree: the structure that
// unifies the polyhedral schedule tree with the calling-context tree
// (paper Fig. 5).  Interior nodes are context elements (blocks the
// execution passed through, loops, recursive components); leaves carry
// the dynamic instruction counts of the statements executed under that
// exact context.
type TreeNode struct {
	Elem   Elem // undefined for the root
	Parent *TreeNode

	Children []*TreeNode
	index    map[Elem]*TreeNode

	// StaticIdx is the node's Kelly-mapping static index: the position
	// of the node among its siblings in first-execution order, which for
	// our generated code coincides with the topological order of the
	// reduced DAG the paper numbers.
	StaticIdx int

	// SelfOps counts dynamic instructions whose context path ends here.
	SelfOps uint64
	// TotalOps is SelfOps plus all descendants' (set by Finalize).
	TotalOps uint64
	// Iters counts iterations for loop/component nodes.
	Iters uint64

	// CtxKey is the vector context key for leaf contexts touched at this
	// node ("" if the node was never an innermost context).
	CtxKey string
	// ID is the node's context ID (see Ctx), valid once leaf is set.
	ID   int
	leaf bool
}

// IsRoot reports whether the node is the tree root.
func (n *TreeNode) IsRoot() bool { return n.Parent == nil }

func (n *TreeNode) child(e Elem) *TreeNode {
	if c, ok := n.index[e]; ok {
		return c
	}
	c := &TreeNode{Elem: e, Parent: n, StaticIdx: len(n.Children)}
	if n.index == nil {
		n.index = map[Elem]*TreeNode{}
	}
	n.index[e] = c
	n.Children = append(n.Children, c)
	return c
}

// renderKey renders the node's context key from its root path, which
// determines the vector's dimensions because a loop or component
// element always closes its dimension (see Vector).
func (n *TreeNode) renderKey() string {
	var rev []Elem
	for cur := n; !cur.IsRoot(); cur = cur.Parent {
		rev = append(rev, cur.Elem)
	}
	var sb strings.Builder
	for i := len(rev) - 1; i >= 0; i-- {
		if i < len(rev)-1 {
			if rev[i+1].IsLoop() {
				sb.WriteByte(',')
			} else {
				sb.WriteByte('/')
			}
		}
		sb.WriteString(rev[i].Key())
	}
	return sb.String()
}

// Path renders the root-to-node context path.
func (n *TreeNode) Path(name Namer) string {
	if n.IsRoot() {
		return "<root>"
	}
	var parts []string
	for cur := n; cur != nil && !cur.IsRoot(); cur = cur.Parent {
		parts = append(parts, name(cur.Elem))
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// Tree is the dynamic schedule tree of one execution.
type Tree struct {
	Root *TreeNode

	cur    *TreeNode // leaf for the current context
	byCtx  map[string]*TreeNode
	frozen bool

	// path[i] is the node of vec's path[:i+1] for i < resolved: the
	// part of the current context's root path that events left intact
	// is reused, not walked again.
	vec      *Vector
	path     []*TreeNode
	resolved int

	// Plain run counters, published once per run (iiv.contexts,
	// iiv.ctx_switches).
	nextID   int
	contexts uint64
	switches uint64
}

// NewTree creates an empty dynamic schedule tree.
func NewTree() *Tree {
	return &Tree{
		Root:   &TreeNode{},
		byCtx:  map[string]*TreeNode{},
		nextID: 1,
	}
}

// resolve returns the node of v's path[:n], creating nodes as needed.
// Only the suffix changed since the last call is looked up again.
func (t *Tree) resolve(v *Vector, n int) *TreeNode {
	if t.vec != v {
		t.vec, t.resolved = v, 0
	}
	t.resolved = min(t.resolved, v.stable)
	v.stable = len(v.path)
	for ; t.resolved < n; t.resolved++ {
		parent := t.Root
		if t.resolved > 0 {
			parent = t.path[t.resolved-1]
		}
		c := parent.child(v.path[t.resolved])
		if t.resolved < len(t.path) {
			t.path[t.resolved] = c
		} else {
			t.path = append(t.path, c)
		}
	}
	if n == 0 {
		return t.Root
	}
	return t.path[n-1]
}

// markLeaf interns n as a leaf context: it gets its ID and its key,
// rendered here once.
func (t *Tree) markLeaf(n *TreeNode) {
	n.leaf = true
	if !n.IsRoot() {
		n.ID = t.nextID
		t.nextID++
	}
	if n.CtxKey == "" {
		n.CtxKey = n.renderKey()
	}
	t.byCtx[n.CtxKey] = n
	t.contexts++
}

// Touch positions the tree's current leaf at the context described by
// the vector, creating nodes as needed.  Call it after every control
// event; CountOp then attributes instructions to the right leaf.  For
// a context already seen it allocates nothing.
func (t *Tree) Touch(v *Vector) *TreeNode {
	n := t.resolve(v, len(v.path))
	if !n.leaf {
		t.markLeaf(n)
	}
	if n != t.cur {
		t.switches++
		t.cur = n
	}
	return n
}

// Cur returns the handle of the current context (the empty context
// before the first Touch).
func (t *Tree) Cur() Ctx {
	if t.cur == nil {
		return Ctx{}
	}
	return Ctx{ID: t.cur.ID, Key: t.cur.CtxKey}
}

// NoteIteration increments the iteration counter of the innermost live
// loop node (the loop element closing the second-innermost dimension).
func (t *Tree) NoteIteration(v *Vector) {
	if k := len(v.starts) - 1; k > 0 {
		t.resolve(v, v.starts[k]).Iters++
	}
}

// CountOp attributes one executed instruction to the current context.
func (t *Tree) CountOp() {
	if t.cur != nil {
		t.cur.SelfOps++
	}
}

// CountOps attributes n executed instructions to the current context
// (the batched-emission equivalent of n CountOp calls).
func (t *Tree) CountOps(n int) {
	if t.cur != nil {
		t.cur.SelfOps += uint64(n)
	}
}

// NodeByCtx returns the leaf node for a context key, or nil.
func (t *Tree) NodeByCtx(key string) *TreeNode { return t.byCtx[key] }

// Contexts returns the number of distinct leaf contexts the tree has
// interned.
func (t *Tree) Contexts() uint64 { return t.contexts }

// Switches returns how often Touch moved the current context.
func (t *Tree) Switches() uint64 { return t.switches }

// Finalize computes aggregated operation counts bottom-up.  It is
// idempotent.
func (t *Tree) Finalize() {
	var agg func(n *TreeNode) uint64
	agg = func(n *TreeNode) uint64 {
		total := n.SelfOps
		for _, c := range n.Children {
			total += agg(c)
		}
		n.TotalOps = total
		return total
	}
	agg(t.Root)
	t.frozen = true
}

// TotalOps returns the whole execution's dynamic instruction count
// (valid after Finalize).
func (t *Tree) TotalOps() uint64 { return t.Root.TotalOps }

// Walk visits every node in depth-first order (children in static
// order).
func (t *Tree) Walk(f func(n *TreeNode, depth int)) {
	var rec func(n *TreeNode, d int)
	rec = func(n *TreeNode, d int) {
		f(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	rec(t.Root, 0)
}

// Render prints an indented view of the tree, heaviest nodes first at
// each level, for diagnostics and the textual feedback report.
func (t *Tree) Render(name Namer, minOps uint64) string {
	var sb strings.Builder
	var rec func(n *TreeNode, depth int)
	rec = func(n *TreeNode, depth int) {
		if !n.IsRoot() {
			if n.TotalOps < minOps {
				return
			}
			fmt.Fprintf(&sb, "%s%s(%d)", strings.Repeat("  ", depth-1), name(n.Elem), n.StaticIdx)
			if n.Elem.IsLoop() {
				fmt.Fprintf(&sb, " iters=%d", n.Iters)
			}
			fmt.Fprintf(&sb, " ops=%d\n", n.TotalOps)
		}
		kids := append([]*TreeNode(nil), n.Children...)
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].TotalOps > kids[j].TotalOps })
		for _, c := range kids {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return sb.String()
}
