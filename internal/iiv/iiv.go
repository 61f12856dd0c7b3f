// Package iiv implements dynamic interprocedural iteration vectors
// (paper Sec. 4): the unification of Kelly's intraprocedural iteration
// vectors with calling-context paths.  A vector alternates context
// stacks (blocks, loop ids, recursive-component ids, possibly nested
// call frames) with canonical induction variables that the profiler
// maintains itself — one dimension per live loop.  Recursive components
// contribute a single dimension whose induction variable keeps
// increasing across calls and returns to the component's headers, so the
// representation depth never grows with recursion depth.
package iiv

import (
	"fmt"
	"strconv"
	"strings"

	"polyprof/internal/cfg"
	"polyprof/internal/cg"
	"polyprof/internal/isa"
	"polyprof/internal/loopevents"
)

// Elem is one element of a context stack: a basic block, a CFG loop, or
// a recursive component.
type Elem struct {
	Block isa.BlockID // valid when Loop and Comp are nil
	Loop  *cfg.Loop
	Comp  *cg.Component
}

func blockElem(b isa.BlockID) Elem  { return Elem{Block: b} }
func loopElem(l *cfg.Loop) Elem     { return Elem{Block: isa.NoBlock, Loop: l} }
func compElem(c *cg.Component) Elem { return Elem{Block: isa.NoBlock, Comp: c} }

// Key returns a compact stable encoding of the element.
func (e Elem) Key() string {
	switch {
	case e.Loop != nil:
		return "L" + strconv.Itoa(e.Loop.ID)
	case e.Comp != nil:
		return "R" + strconv.Itoa(e.Comp.ID)
	default:
		return "b" + strconv.Itoa(int(e.Block))
	}
}

// IsLoop reports whether the element denotes a CFG loop or recursive
// component (i.e. whether the following dimension's induction variable
// belongs to it).
func (e Elem) IsLoop() bool { return e.Loop != nil || e.Comp != nil }

// Vector is a dynamic interprocedural iteration vector, updated from
// loop events per Alg. 3.  It stores the context stacks of all its
// dimensions as one flattened path: a loop or component element always
// closes its dimension (EnterLoop/EnterRec append it last and open the
// next dimension; ExitLoop/ExitRec remove it together with that
// dimension), so the path alone determines where dimensions begin.
// That invariant is what lets the schedule tree identify a context by
// the node its path leads to.
type Vector struct {
	path   []Elem
	starts []int   // starts[k] is where dimension k's stack begins in path
	ivs    []int64 // ivs[k] is dimension k's induction variable (ivs[0] unused)

	// stable is the length of the path prefix no event has changed since
	// the schedule tree last resolved the path (Tree.resolve).
	stable int
}

// NewVector returns the initial vector: a single dimension with an
// empty context.
func NewVector() *Vector {
	return &Vector{starts: []int{0}, ivs: []int64{0}}
}

// Depth returns the loop depth (number of dimensions beyond the root).
func (v *Vector) Depth() int { return len(v.starts) - 1 }

// dim returns dimension k's context stack.
func (v *Vector) dim(k int) []Elem {
	end := len(v.path)
	if k+1 < len(v.starts) {
		end = v.starts[k+1]
	}
	return v.path[v.starts[k]:end]
}

// setLast replaces the innermost stack's top element (pushing onto an
// empty stack).
func (v *Vector) setLast(e Elem) {
	n := len(v.path)
	if n == v.starts[len(v.starts)-1] {
		v.path = append(v.path, e)
		return
	}
	if v.path[n-1] != e {
		v.path[n-1] = e
		v.stable = min(v.stable, n-1)
	}
}

func (v *Vector) push(e Elem) { v.path = append(v.path, e) }

func (v *Vector) pop() {
	if n := len(v.path); n > v.starts[len(v.starts)-1] {
		v.path = v.path[:n-1]
		v.stable = min(v.stable, n-1)
	}
}

func (v *Vector) addDim(e Elem) {
	v.starts = append(v.starts, len(v.path))
	v.ivs = append(v.ivs, 0)
	v.path = append(v.path, e)
}

func (v *Vector) removeDim() {
	if k := len(v.starts) - 1; k > 0 {
		v.path = v.path[:v.starts[k]]
		v.stable = min(v.stable, len(v.path))
		v.starts = v.starts[:k]
		v.ivs = v.ivs[:k]
	}
}

// Apply updates the vector with one loop event (Alg. 3, extended with
// the N rule: a local jump updates the innermost context's current
// block).
func (v *Vector) Apply(ev loopevents.Event) {
	switch ev.Kind {
	case loopevents.LocalJump:
		v.setLast(blockElem(ev.Block))

	case loopevents.CallFn:
		v.push(blockElem(ev.Block))

	case loopevents.ReturnFn:
		v.pop()
		v.setLast(blockElem(ev.Block))

	case loopevents.EnterLoop:
		v.setLast(loopElem(ev.Loop))
		v.addDim(blockElem(ev.Block))

	case loopevents.EnterRec:
		v.push(compElem(ev.Comp))
		v.addDim(blockElem(ev.Block))

	case loopevents.ExitLoop:
		v.removeDim()
		v.setLast(blockElem(ev.Block))

	case loopevents.ExitRec:
		v.removeDim()
		v.pop()
		v.setLast(blockElem(ev.Block))

	case loopevents.IterateLoop, loopevents.IterCallRec, loopevents.IterRetRec:
		v.ivs[len(v.ivs)-1]++
		v.setLast(blockElem(ev.Block))
	}
}

// Coords appends the induction variables (outermost first) to buf and
// returns it.  The root dimension carries no induction variable.
func (v *Vector) Coords(buf []int64) []int64 {
	return append(buf, v.ivs[1:]...)
}

// Key returns a stable encoding of the non-numerical part of the vector
// (the "context" the folding stage groups by).  It renders on every
// call; the pass-2 hot path uses the schedule tree's interned handle
// (Tree.Cur) instead.
func (v *Vector) Key() string {
	var sb strings.Builder
	for k := range v.starts {
		if k > 0 {
			sb.WriteByte(',')
		}
		for j, e := range v.dim(k) {
			if j > 0 {
				sb.WriteByte('/')
			}
			sb.WriteString(e.Key())
		}
	}
	return sb.String()
}

// Namer renders context elements with human-readable names.
type Namer func(e Elem) string

// ProgramNamer builds a Namer using the program's block names.
func ProgramNamer(p *isa.Program) Namer {
	return func(e Elem) string {
		switch {
		case e.Loop != nil:
			return fmt.Sprintf("L%d", e.Loop.ID)
		case e.Comp != nil:
			return fmt.Sprintf("R%d", e.Comp.ID)
		default:
			if e.Block == isa.NoBlock {
				return "?"
			}
			return p.Block(e.Block).Name
		}
	}
}

// Render prints the vector in the paper's textual form, e.g.
// "(M0/L1, 0, A1/L2, 1, B1)".
func (v *Vector) Render(name Namer) string {
	var sb strings.Builder
	sb.WriteByte('(')
	for k := range v.starts {
		if k > 0 {
			fmt.Fprintf(&sb, ", %d, ", v.ivs[k])
		}
		for j, e := range v.dim(k) {
			if j > 0 {
				sb.WriteByte('/')
			}
			sb.WriteString(name(e))
		}
	}
	sb.WriteByte(')')
	return sb.String()
}
