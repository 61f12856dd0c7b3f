package fold

import (
	"math/big"

	"polyprof/internal/poly"
)

// ratFitter is the differential reference for Fitter: the same
// incremental affine regression by rational Gaussian elimination on
// big.Rat (reduced row-echelon basis, constant column pivoted first,
// free coefficients solved to zero).  It is slow and allocation-heavy,
// and exists only so tests and FuzzFitter can check that the integer
// fitter decides every sample the same way.
type ratFitter struct {
	m        int
	failed   bool
	rows     [][]*big.Rat
	pivot    []int
	solved   *poly.Expr
	nSamples int
}

func newRatFitter(m int) *ratFitter { return &ratFitter{m: m} }

func (f *ratFitter) Failed() bool { return f.failed }

func (f *ratFitter) sampleRow(x []int64, y int64) []*big.Rat {
	row := make([]*big.Rat, f.m+2)
	for i := 0; i < f.m; i++ {
		row[i] = new(big.Rat).SetInt64(x[i])
	}
	row[f.m] = new(big.Rat).SetInt64(1)
	row[f.m+1] = new(big.Rat).SetInt64(y)
	return row
}

func (f *ratFitter) Add(x []int64, y int64) bool {
	if f.failed {
		return false
	}
	f.nSamples++
	if f.solved != nil {
		if f.solved.Eval(x) != y {
			f.fail()
		}
		return !f.failed
	}
	row := f.sampleRow(x, y)
	f.reduce(row)
	lead := f.leadCol(row)
	switch {
	case lead == -1:
		if row[f.m+1].Sign() != 0 {
			f.fail()
		}
	default:
		f.insertRow(row, lead)
		if len(f.rows) == f.m+1 {
			e, ok := f.solveExpr()
			if !ok {
				f.fail()
			} else {
				f.solved = &e
				f.rows, f.pivot = nil, nil
			}
		}
	}
	return !f.failed
}

func (f *ratFitter) Check(x []int64, y int64) bool {
	if f.failed {
		return false
	}
	if f.solved != nil {
		return f.solved.Eval(x) == y
	}
	row := f.sampleRow(x, y)
	f.reduce(row)
	return f.leadCol(row) != -1 || row[f.m+1].Sign() == 0
}

func (f *ratFitter) fail() {
	f.failed = true
	f.rows = nil
	f.solved = nil
}

func (f *ratFitter) reduce(row []*big.Rat) {
	for i, r := range f.rows {
		p := f.pivot[i]
		if row[p].Sign() == 0 {
			continue
		}
		factor := new(big.Rat).Quo(row[p], r[p])
		for j := range row {
			row[j] = new(big.Rat).Sub(row[j], new(big.Rat).Mul(factor, r[j]))
		}
	}
}

// leadCol picks the pivot column: the constant column first, then x0,
// x1, ... (kept apart from the integer fitter's pivotCol on purpose).
func (f *ratFitter) leadCol(row []*big.Rat) int {
	if row[f.m].Sign() != 0 {
		return f.m
	}
	for j := 0; j < f.m; j++ {
		if row[j].Sign() != 0 {
			return j
		}
	}
	return -1
}

func (f *ratFitter) insertRow(row []*big.Rat, lead int) {
	for _, r := range f.rows {
		if r[lead].Sign() == 0 {
			continue
		}
		factor := new(big.Rat).Quo(r[lead], row[lead])
		for j := range r {
			r[j] = new(big.Rat).Sub(r[j], new(big.Rat).Mul(factor, row[j]))
		}
	}
	f.rows = append(f.rows, row)
	f.pivot = append(f.pivot, lead)
}

func (f *ratFitter) solveExpr() (poly.Expr, bool) {
	coeffs := make([]*big.Rat, f.m+1)
	for i := range coeffs {
		coeffs[i] = new(big.Rat)
	}
	for i, r := range f.rows {
		p := f.pivot[i]
		val := new(big.Rat).Set(r[f.m+1])
		coeffs[p] = val.Quo(val, r[p])
	}
	e := poly.NewExpr(f.m)
	for i := 0; i <= f.m; i++ {
		if !coeffs[i].IsInt() {
			return poly.Expr{}, false
		}
		v := coeffs[i].Num().Int64()
		if i == f.m {
			e.K = v
		} else {
			e.C[i] = v
		}
	}
	return e, true
}

func (f *ratFitter) Solve() (poly.Expr, bool) {
	if f.failed || f.nSamples == 0 {
		return poly.Expr{}, false
	}
	if f.solved != nil {
		return *f.solved, true
	}
	return f.solveExpr()
}

// state renders the reference basis the way checkpoints written by the
// rational fitter did: rows of "num/den" strings (RatString).
func (f *ratFitter) state() FitterState {
	s := FitterState{M: f.m, Failed: f.failed, NSamples: f.nSamples}
	if f.solved != nil {
		e := f.solved.Clone()
		s.Solved = &e
	}
	for _, r := range f.rows {
		row := make([]string, len(r))
		for j, v := range r {
			row[j] = v.RatString()
		}
		s.Rows = append(s.Rows, row)
	}
	s.Pivot = append([]int(nil), f.pivot...)
	return s
}

// clone deep-copies the reference (its entries are never mutated in
// place, so rows can share them).
func (f *ratFitter) clone() *ratFitter {
	c := *f
	c.rows = nil
	for _, r := range f.rows {
		c.rows = append(c.rows, append([]*big.Rat(nil), r...))
	}
	c.pivot = append([]int(nil), f.pivot...)
	if f.solved != nil {
		e := f.solved.Clone()
		c.solved = &e
	}
	return &c
}

// restoreRatFitter loads a checkpointed basis into the reference.
func restoreRatFitter(s FitterState) *ratFitter {
	f := &ratFitter{m: s.M, failed: s.Failed, nSamples: s.NSamples, pivot: append([]int(nil), s.Pivot...)}
	if s.Solved != nil {
		e := s.Solved.Clone()
		f.solved = &e
	}
	for _, row := range s.Rows {
		r := make([]*big.Rat, len(row))
		for j, v := range row {
			r[j], _ = new(big.Rat).SetString(v)
		}
		f.rows = append(f.rows, r)
	}
	return f
}
