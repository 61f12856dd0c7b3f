// Package fold compresses the DDG's point streams into polyhedra with
// affine label functions — the paper's third stage (Sec. 5, detailed in
// the companion report [29]).  Folding is geometric and incremental:
// points arrive in lexicographic order (a property the IIV construction
// guarantees), each nesting level recognizes contiguous runs whose
// bounds are affine functions of the outer coordinates, and labels
// (produced values, addresses, producer coordinates) are fitted by
// exact incremental affine regression.  Streams that do not fold
// exactly degrade to bounding-box over-approximations instead of being
// dropped, which is what keeps whole-program analysis scalable.
package fold

import (
	"math"
	"math/big"
	"math/bits"
	"slices"

	"polyprof/internal/poly"
)

// Fitter incrementally decides whether a stream of samples (x, y) with
// x in Z^m lies on an affine function y = c·x + k, by exact
// fraction-free Gaussian elimination over the integers.  Adding samples
// is cheap once the function is determined (integer evaluation); before
// that, a sample the basis of independent samples seen so far already
// spans is recognized by a few dot products with the basis's orthogonal
// complement, and any other sample is reduced against the basis, which
// an independent sample extends.
//
// The basis is kept in overflow-checked int64 arithmetic.  A fitter
// whose numbers outgrow int64 is promoted, for the rest of its life, to
// the same elimination over big.Int.  Both widths hold the same exact
// basis, so the width never changes a decision.
type Fitter struct {
	m      int
	failed bool

	// The basis holds rank = len(pivot) rows: sample equations over the
	// m+1 unknown coefficients (m variable coefficients plus the
	// constant).  Each row has m+2 integer entries, the coefficient
	// columns and then the right-hand side.  Rows are in reduced
	// row-echelon form (a row is zero in every other row's pivot
	// column), and every row is primitive (its entries share no common
	// factor) with a positive pivot entry.  A row is thus the unique
	// integer representative of the rational row the same elimination
	// over Q would hold, which keeps the basis independent of the width
	// and of checkpoint round trips.
	pivot []int // pivot[i] is the pivot column of row i

	// mat is the int64 basis, m+2 rows of m+2 entries: basis rows
	// 0..rank-1, then row rank as the scratch row a sample is reduced
	// in (an independent sample is already in place to join the basis),
	// and row m+1 as staging for back-elimination.  nil before the
	// first sample that needs elimination, and after promotion.
	mat []int64
	// wide replaces mat after promotion, with the same row layout.
	wide [][]*big.Int

	// comp spans the orthogonal complement of the int64 basis's row
	// space: nComp vectors of m+2 entries, one per free column (see
	// buildComp).  compRank is the rank it was built for (0: never, as
	// a basis is non-empty), compBits the bit length of its largest
	// entry, or 64 when an entry overflowed and the screen is off.
	// Derived state: rebuilt when the rank changes, never serialized.
	comp     []int64
	nComp    int
	compRank int
	compBits int

	// verdict is the path by which the last Check accepted its sample
	// without changing any state (pathSolved or pathScreened), else
	// zero.  commit counts such a sample instead of deciding it again.
	// Every Check, Add and commit resets it, so a verdict never
	// outlives the sample it was given for.
	verdict uint8

	// solved is the integer affine function once determined ("decided"
	// the moment the basis reaches full rank).
	solved   *poly.Expr
	nSamples int

	// Samples fed by this process, split by the path that decided them
	// (evaluation of the solved function, the complement screen, int64
	// or big.Int elimination).  Work counters for metrics, not
	// checkpointed.
	nSolved, nScreened, nInt64, nWide int
}

// Check verdicts: the sample was accepted without a state change.
const (
	pathSolved = 1 + iota
	pathScreened
)

// NewFitter creates a fitter for x in Z^m.
func NewFitter(m int) *Fitter {
	return &Fitter{m: m}
}

// Failed reports whether some sample contradicted affinity (or an exact
// rational fit exists but is not integer).
func (f *Fitter) Failed() bool { return f.failed }

// Samples returns the number of samples fed.
func (f *Fitter) Samples() int { return f.nSamples }

// Add feeds one sample; returns false once the stream is known to be
// non-affine.
func (f *Fitter) Add(x []int64, y int64) bool {
	f.verdict = 0
	if f.failed {
		return false
	}
	f.nSamples++
	if f.solved != nil {
		f.nSolved++
		if f.solved.Eval(x) != y {
			f.fail()
		}
		return !f.failed
	}
	if f.screen(x, y) {
		f.nScreened++
		return true
	}
	var lead int
	if f.wide != nil {
		lead = f.reduceWide(x, y)
	} else {
		var ok bool
		lead, ok = f.reduce64(x, y)
		if ok && f.extend64(lead) {
			f.nInt64++
			return !f.failed
		}
		f.promote()
		if !ok {
			lead = f.reduceWide(x, y)
		}
		// Otherwise back-elimination overflowed part-way: the reduced
		// sample sits in row rank and the rows already eliminated
		// against it are final, so the insertion resumes wide.
	}
	f.nWide++
	f.extendWide(lead)
	return !f.failed
}

// Check reports whether the sample is consistent with the fitter's
// current state without changing what it has learned: an
// already-determined function must evaluate to y; an undetermined basis
// must not reduce the sample to a contradiction (rank extension is
// consistent).
func (f *Fitter) Check(x []int64, y int64) bool {
	f.verdict = 0
	if f.failed {
		return false
	}
	if f.solved != nil {
		if f.solved.Eval(x) != y {
			return false
		}
		f.verdict = pathSolved
		return true
	}
	if f.screen(x, y) {
		f.verdict = pathScreened
		return true
	}
	if f.wide == nil {
		if lead, ok := f.reduce64(x, y); ok {
			return lead >= 0 || f.row64(len(f.pivot))[f.m+1] == 0
		}
		f.promote()
	}
	return f.reduceWide(x, y) >= 0 || f.wide[len(f.pivot)][f.m+1].Sign() == 0
}

// commit feeds the sample the last Check accepted.  A sample Check
// accepted without a state change is only counted; any other is
// decided again by Add.  Only Folder.addChecked calls it, right after
// checkLabels passed the same sample through Check; plain Add never
// trusts a verdict.
func (f *Fitter) commit(x []int64, y int64) {
	switch f.verdict {
	case pathSolved:
		f.nSolved++
	case pathScreened:
		f.nScreened++
	default:
		f.Add(x, y)
		return
	}
	f.verdict = 0
	f.nSamples++
}

// pivotCol is the column tried i-th when choosing a new row's pivot.
// The constant column comes first so underdetermined streams solve to
// the "most constant" integral function (a stream that never varied a
// coordinate fits as a constant rather than as a fractional multiple of
// that coordinate).
func pivotCol(m, i int) int {
	if i == 0 {
		return m
	}
	return i - 1
}

func (f *Fitter) fail() {
	f.failed = true
	f.clearBasis()
	f.solved = nil
}

func (f *Fitter) clearBasis() {
	f.pivot, f.mat, f.wide, f.comp = nil, nil, nil, nil
}

func (f *Fitter) row64(i int) []int64 {
	w := f.m + 2
	return f.mat[i*w : (i+1)*w]
}

// reduce64 loads the sample equation [x..., 1 | y] into the scratch row
// and eliminates the basis pivots from it; it returns the reduced row's
// pivot column (-1 when every coefficient column vanished) and false on
// int64 overflow.
func (f *Fitter) reduce64(x []int64, y int64) (int, bool) {
	if f.mat == nil {
		// One allocation for the basis and its complement, which has
		// at most m+1 vectors once the basis holds a row.
		w := f.m + 2
		buf := make([]int64, (2*w-1)*w)
		f.mat, f.comp = buf[:w*w:w*w], buf[w*w:]
		f.pivot = make([]int, 0, f.m+1)
	}
	v := f.row64(len(f.pivot))
	for i := 0; i < f.m; i++ {
		v[i] = x[i]
	}
	v[f.m] = 1
	v[f.m+1] = y
	if !inRange64(v) {
		return -1, false
	}
	for i, p := range f.pivot {
		b := v[p]
		if b == 0 {
			continue
		}
		r := f.row64(i)
		a := r[p]
		if a != 1 {
			g := gcd64(a, abs64(b))
			a, b = a/g, b/g
		}
		if !combine64(v, a, v, b, r) {
			return -1, false
		}
	}
	return f.leadCol64(v), true
}

// extend64 acts on the reduced scratch row: a vanished row is redundant
// or (with a nonzero right-hand side) a contradiction; otherwise the row
// joins the basis and is back-eliminated from the existing rows.  It
// returns false on int64 overflow, with every row it has already
// updated in its final form.
func (f *Fitter) extend64(lead int) bool {
	v := f.row64(len(f.pivot))
	if lead < 0 {
		if v[f.m+1] != 0 {
			f.fail()
		}
		return true
	}
	normalize64(v, lead)
	t := f.row64(f.m + 1)
	for i, p := range f.pivot {
		r := f.row64(i)
		b := r[lead]
		if b == 0 {
			continue
		}
		a := v[lead]
		if g := gcd64(a, abs64(b)); g != 1 {
			a, b = a/g, b/g
		}
		if !combine64(t, a, r, b, v) {
			return false
		}
		normalize64(t, p)
		copy(r, t)
	}
	f.push(lead)
	return true
}

// push makes the scratch row a basis row pivoting on lead, and decides
// the function once the basis reaches full rank.
func (f *Fitter) push(lead int) {
	f.pivot = append(f.pivot, lead)
	if len(f.pivot) == f.m+1 {
		f.trySolve()
	}
}

func (f *Fitter) leadCol64(v []int64) int {
	for i := 0; i <= f.m; i++ {
		if j := pivotCol(f.m, i); v[j] != 0 {
			return j
		}
	}
	return -1
}

// inRange64 reports whether every entry avoids math.MinInt64.  The int64
// basis keeps its entries in the symmetric range (-2^63, 2^63), so
// negation and absolute values never overflow.
func inRange64(v []int64) bool {
	for _, e := range v {
		if e == math.MinInt64 {
			return false
		}
	}
	return true
}

// combine64 sets dst = a·u − b·v entrywise (dst may alias u) and reports
// false if any product or difference leaves (-2^63, 2^63).  a > 0.
func combine64(dst []int64, a int64, u []int64, b int64, v []int64) bool {
	// When both products fit in 62 bits for every entry, so does their
	// difference, and the loop needs no per-entry checks.
	var mu, mv uint64
	for j := range dst {
		mu |= uint64(abs64(u[j]))
		mv |= uint64(abs64(v[j]))
	}
	if bits.Len64(uint64(a))+bits.Len64(mu) <= 62 && bits.Len64(uint64(abs64(b)))+bits.Len64(mv) <= 62 {
		for j := range dst {
			dst[j] = a*u[j] - b*v[j]
		}
		return true
	}
	for j := range dst {
		p, ok := mul64(a, u[j])
		if !ok {
			return false
		}
		q, ok := mul64(b, v[j])
		if !ok {
			return false
		}
		d := p - q
		if (p^q)&(p^d) < 0 || d == math.MinInt64 {
			return false
		}
		dst[j] = d
	}
	return true
}

// mul64 returns a·b and whether it lies in (-2^63, 2^63).
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(abs64(a)), uint64(abs64(b)))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// gcd64 returns gcd(a, b) for a, b >= 0, not both zero.
func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// normalize64 divides the row by the gcd of its entries and makes the
// pivot entry positive.
func normalize64(v []int64, pivot int) {
	var g int64
	for _, e := range v {
		if e != 0 {
			g = gcd64(abs64(e), g)
		}
	}
	if v[pivot] < 0 {
		g = -g
	}
	if g != 1 {
		for j := range v {
			v[j] /= g
		}
	}
}

// screen reports whether the sample row v = [x..., 1 | y] lies in the
// row space of the int64 basis, i.e. whether it is redundant and
// consistent, which leaves Add and Check nothing to do.  Over Q the row
// space is exactly the set of vectors orthogonal to its complement, and
// v lies in it exactly when elimination would reduce it to zero, so
// true is the very decision elimination would reach.  false means "not
// shown": the sample is independent or contradictory, or the test is
// off (no int64 basis, an overflowed complement, or dot products that
// might overflow), and elimination decides as before.
func (f *Fitter) screen(x []int64, y int64) bool {
	if f.mat == nil || len(f.pivot) == 0 {
		return false
	}
	if f.compRank != len(f.pivot) {
		f.buildComp()
	}
	// Each of the m+2 products is below 2^(compBits+bits(|v|)), so the
	// sums stay in int64 when that plus bits(m+2) is at most 63.
	mag := 1 | uint64(abs64(y))
	for _, e := range x[:f.m] {
		mag |= uint64(abs64(e))
	}
	w := f.m + 2
	if f.compBits+bits.Len64(mag)+bits.Len(uint(w)) > 63 {
		return false
	}
	for k := 0; k < f.nComp; k++ {
		z := f.comp[k*w : (k+1)*w]
		d := z[f.m] + z[f.m+1]*y
		for i, e := range x[:f.m] {
			d += z[i] * e
		}
		if d != 0 {
			return false
		}
	}
	return true
}

// buildComp rebuilds comp for the current basis.  In reduced
// row-echelon form row i reads r[p_i]·c_{p_i} + sum over free columns
// j of r[j]·c_j, so every free column j (the right-hand side column
// included) yields the null vector z with z_j = L and
// z_{p_i} = −L·r_i[j]/r_i[p_i], L being the LCM of the pivots of the
// rows with r_i[j] ≠ 0, and zero elsewhere.  These m+2−rank vectors are
// independent, so they span the complement.  Each is made primitive;
// on int64 overflow compBits stays 64, which turns the screen off until
// the rank changes.
func (f *Fitter) buildComp() {
	w := f.m + 2
	if f.comp == nil {
		f.comp = make([]int64, (w-1)*w)
	}
	f.compRank, f.nComp, f.compBits = len(f.pivot), 0, 64
	var mag uint64
	for j := 0; j < w; j++ {
		if slices.Contains(f.pivot, j) {
			continue
		}
		z := f.comp[f.nComp*w : (f.nComp+1)*w]
		f.nComp++
		clear(z)
		l := int64(1)
		for i, p := range f.pivot {
			if r := f.row64(i); r[j] != 0 {
				var ok bool
				if l, ok = mul64(l/gcd64(l, r[p]), r[p]); !ok {
					return
				}
			}
		}
		z[j] = l
		for i, p := range f.pivot {
			r := f.row64(i)
			if r[j] != 0 {
				e, ok := mul64(l/r[p], r[j])
				if !ok {
					return
				}
				z[p] = -e
			}
		}
		normalize64(z, j)
		for _, e := range z {
			mag |= uint64(abs64(e))
		}
	}
	f.compBits = bits.Len64(mag)
}

// promote moves the basis (and the scratch row) from int64 to big.Int.
func (f *Fitter) promote() {
	w := f.m + 2
	f.wide = make([][]*big.Int, f.m+2)
	for i := range f.wide {
		row := make([]*big.Int, w)
		for j := range row {
			row[j] = big.NewInt(f.mat[i*w+j])
		}
		f.wide[i] = row
	}
	f.mat, f.comp = nil, nil
}

// reduceWide is reduce64 over big.Int.
func (f *Fitter) reduceWide(x []int64, y int64) int {
	v := f.wide[len(f.pivot)]
	for i := 0; i < f.m; i++ {
		v[i].SetInt64(x[i])
	}
	v[f.m].SetInt64(1)
	v[f.m+1].SetInt64(y)
	var a, b, t big.Int
	for i, p := range f.pivot {
		if v[p].Sign() == 0 {
			continue
		}
		r := f.wide[i]
		coprime(&a, &b, r[p], v[p])
		combineWide(v, &a, v, &b, r, &t)
	}
	for i := 0; i <= f.m; i++ {
		if j := pivotCol(f.m, i); v[j].Sign() != 0 {
			return j
		}
	}
	return -1
}

// extendWide is extend64 over big.Int, which cannot overflow.
func (f *Fitter) extendWide(lead int) {
	v := f.wide[len(f.pivot)]
	if lead < 0 {
		if v[f.m+1].Sign() != 0 {
			f.fail()
		}
		return
	}
	normalizeWide(v, lead)
	var a, b, t big.Int
	for i, p := range f.pivot {
		r := f.wide[i]
		if r[lead].Sign() == 0 {
			continue
		}
		coprime(&a, &b, v[lead], r[lead])
		combineWide(r, &a, r, &b, v, &t)
		normalizeWide(r, p)
	}
	f.push(lead)
}

// coprime sets a, b to x, y divided by their gcd.
func coprime(a, b, x, y *big.Int) {
	var g big.Int
	g.GCD(nil, nil, x, y)
	a.Quo(x, &g)
	b.Quo(y, &g)
}

// combineWide sets dst = a·u − b·v entrywise (dst may alias u), using t
// as a temporary.
func combineWide(dst []*big.Int, a *big.Int, u []*big.Int, b *big.Int, v []*big.Int, t *big.Int) {
	for j := range dst {
		t.Mul(b, v[j])
		dst[j].Mul(a, u[j])
		dst[j].Sub(dst[j], t)
	}
}

// normalizeWide is normalize64 over big.Int.
func normalizeWide(v []*big.Int, pivot int) {
	var g big.Int
	for _, e := range v {
		g.GCD(nil, nil, &g, e)
	}
	if v[pivot].Sign() < 0 {
		g.Neg(&g)
	}
	if !g.IsInt64() || g.Int64() != 1 {
		for _, e := range v {
			e.Quo(e, &g)
		}
	}
}

// trySolve extracts the unique solution and checks integrality.
func (f *Fitter) trySolve() {
	e, ok := f.solveExpr()
	if !ok {
		f.fail()
		return
	}
	f.solved = &e
	f.clearBasis()
}

// solveExpr solves the current (possibly underdetermined) system with
// free coefficients set to zero; returns false when the solution is not
// integral.  In reduced row-echelon form row i reads
// r[p]·c_p + sum over free columns j of r[j]·c_j = rhs, so with the free
// coefficients at zero c_p = rhs / r[p].
func (f *Fitter) solveExpr() (poly.Expr, bool) {
	e := poly.NewExpr(f.m)
	var q, rem big.Int
	for i, p := range f.pivot {
		var c int64
		if f.wide != nil {
			r := f.wide[i]
			q.QuoRem(r[f.m+1], r[p], &rem)
			if rem.Sign() != 0 {
				return poly.Expr{}, false
			}
			// A coefficient beyond int64 keeps its low 64 bits, as in
			// the rational reference fitter.
			c = q.Int64()
		} else {
			r := f.row64(i)
			if r[f.m+1]%r[p] != 0 {
				return poly.Expr{}, false
			}
			c = r[f.m+1] / r[p]
		}
		if p == f.m {
			e.K = c
		} else {
			e.C[p] = c
		}
	}
	return e, true
}

// Solve returns the fitted affine function.  For underdetermined
// streams (a coordinate never varied) free coefficients are zero, which
// fits every observed sample.  ok is false if the stream was non-affine
// or empty.
func (f *Fitter) Solve() (poly.Expr, bool) {
	if f.failed || f.nSamples == 0 {
		return poly.Expr{}, false
	}
	if f.solved != nil {
		return *f.solved, true
	}
	return f.solveExpr()
}
