package fold

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"polyprof/internal/poly"
)

// fitSample is one (x, y) sample of a fitter stream.
type fitSample struct {
	x []int64
	y int64
}

// Stream kinds FuzzFitter draws from.
const (
	streamExplicit    = iota // samples decoded from the fuzzer's bytes
	streamAffine             // y = c·x + k exactly
	streamNearAffine         // affine except one perturbed sample
	streamUnderdet           // some coordinates constant (for a while)
	streamNonIntegral        // exact rational fit with a fractional coefficient
	streamOverflow           // coordinates near ±2^40
	numStreamKinds
)

// genFitterStream builds a stream of n samples over Z^m.  Explicit
// streams decode m+1 varints per sample from raw instead, up to 255
// samples like the generated ones.
func genFitterStream(kind, m int, seed int64, n int, raw []byte) []fitSample {
	r := rand.New(rand.NewSource(seed))
	var out []fitSample
	if kind == streamExplicit {
		for len(out) < 255 {
			s := fitSample{x: make([]int64, m)}
			for i := 0; i <= m; i++ {
				v, k := binary.Varint(raw)
				if k <= 0 {
					return out
				}
				raw = raw[k:]
				if i < m {
					s.x[i] = v
				} else {
					s.y = v
				}
			}
			out = append(out, s)
		}
		return out
	}
	c := make([]int64, m)
	for i := range c {
		c[i] = r.Int63n(11) - 5
	}
	k := r.Int63n(201) - 100
	den := 2 + r.Int63n(3) // streamNonIntegral: y = (c·x)/den + k
	constUntil := make([]int, m)
	for i := range constUntil {
		if r.Intn(2) == 0 {
			constUntil[i] = r.Intn(n + 1)
		}
	}
	perturb := r.Intn(n + 1)
	x := make([]int64, m)
	for i := range x {
		x[i] = r.Int63n(10)
	}
	for s := 0; s < n; s++ {
		for i := range x {
			switch kind {
			case streamOverflow:
				// Mostly near ±2^40, sometimes small, sometimes near
				// ±2^62; some coordinates hold their first value for a
				// while, so the basis stays rank-deficient.
				if s < constUntil[i] && s > 0 {
					break
				}
				switch r.Intn(4) {
				case 0:
					x[i] = r.Int63n(21) - 10
				case 1:
					x[i] = (1<<62)*(1-2*r.Int63n(2)) + r.Int63n(21) - 10
				default:
					x[i] = (1<<40)*(r.Int63n(3)-1) + r.Int63n(2001) - 1000
				}
			case streamNonIntegral:
				x[i] = den * (r.Int63n(21) - 10)
			case streamUnderdet:
				if s >= constUntil[i] {
					x[i] = r.Int63n(21) - 10
				}
			default:
				x[i] = r.Int63n(21) - 10
			}
		}
		var y int64
		for i := range x {
			y += c[i] * x[i]
		}
		if kind == streamNonIntegral {
			y /= den
		}
		y += k
		if kind == streamNearAffine && s == perturb {
			y += 1 + r.Int63n(3)
		}
		out = append(out, fitSample{x: append([]int64(nil), x...), y: y})
	}
	return out
}

// encodeStream is the explicit-stream byte form genFitterStream decodes.
func encodeStream(samples ...[]int64) []byte {
	var raw []byte
	for _, s := range samples {
		for _, v := range s {
			raw = binary.AppendVarint(raw, v)
		}
	}
	return raw
}

func sameSolve(a poly.Expr, aok bool, b poly.Expr, bok bool) bool {
	if aok != bok {
		return false
	}
	if !aok {
		return true
	}
	if a.K != b.K || len(a.C) != len(b.C) {
		return false
	}
	for i := range a.C {
		if a.C[i] != b.C[i] {
			return false
		}
	}
	return true
}

// diffFitters feeds the stream to the integer fitter and the big.Rat
// reference, with a seeded mix of Check-then-Add, Check-only, Add-only,
// clones and checkpoint round trips (current and rational-era formats), and
// fails on the first sample where they disagree.
func diffFitters(t *testing.T, m int, stream []fitSample, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	got, ref := NewFitter(m), newRatFitter(m)
	for i, s := range stream {
		// Both checkpoint round trips must land on the very rows the
		// fitter held: the basis is canonical.
		switch before := got.State(); r.Intn(8) {
		case 0:
			blob, err := json.Marshal(before)
			if err != nil {
				t.Fatal(err)
			}
			var st FitterState
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			if got, err = RestoreFitter(st); err != nil {
				t.Fatalf("sample %d: restore: %v", i, err)
			}
			if after := got.State(); !reflect.DeepEqual(after, before) {
				t.Fatalf("sample %d: state round trip %+v, want %+v", i, after, before)
			}
		case 1:
			var err error
			if got, err = RestoreFitter(ref.state()); err != nil {
				t.Fatalf("sample %d: restore rational state: %v", i, err)
			}
			if after := got.State(); !reflect.DeepEqual(after, before) {
				t.Fatalf("sample %d: rational state restores to %+v, want %+v", i, after, before)
			}
		case 2:
			got = got.Clone()
		}
		op := r.Intn(4) // 0: Check only, 1: Add only, else Check then Add
		if op != 1 {
			if g, w := got.Check(s.x, s.y), ref.Check(s.x, s.y); g != w {
				t.Fatalf("sample %d %v->%d: Check = %v, reference %v", i, s.x, s.y, g, w)
			}
		}
		if op != 0 {
			if g, w := got.Add(s.x, s.y), ref.Add(s.x, s.y); g != w {
				t.Fatalf("sample %d %v->%d: Add = %v, reference %v", i, s.x, s.y, g, w)
			}
		}
		if got.Failed() != ref.Failed() {
			t.Fatalf("sample %d: Failed = %v, reference %v", i, got.Failed(), ref.Failed())
		}
		ge, gok := got.Solve()
		we, wok := ref.Solve()
		if !sameSolve(ge, gok, we, wok) {
			t.Fatalf("sample %d: Solve = %v,%v, reference %v,%v", i, ge, gok, we, wok)
		}
	}
}

// fitterSeeds are the streams of the TestFitter* unit tests, plus one
// edge case.
var fitterSeeds = []struct {
	m       int
	samples [][]int64
}{
	{2, func() (s [][]int64) { // TestFitterExactLinear
		for i := int64(0); i < 4; i++ {
			for j := int64(0); j < 4; j++ {
				s = append(s, []int64{i, j, 2*i - 3*j + 5})
			}
		}
		return s
	}()},
	{1, [][]int64{{0, 0}, {1, 1}, {2, 4}, {3, 9}, {4, 16}}},                 // TestFitterRejectsNonAffine
	{1, [][]int64{{0, 0}, {2, 1}, {4, 2}}},                                  // TestFitterRejectsRationalSolution
	{2, [][]int64{{3, 4, 7}}},                                               // TestFitterUnderdetermined
	{2, [][]int64{{0, 0, 1}, {1, 0, 3}, {2, 0, 5}, {0, 1, 11}, {1, 1, 13}}}, // TestFitterConstantThenVarying
	// Not from a unit test: int64 extremes, where math.MinInt64 forces
	// the big.Int width straight away.
	{2, [][]int64{{0, 5, 1}, {math.MaxInt64, 5, 3}, {math.MinInt64, 5, 1}, {1, 5, math.MinInt64}, {2, 5, 7}}},
}

func FuzzFitter(f *testing.F) {
	for _, s := range fitterSeeds {
		f.Add(uint8(s.m), uint8(streamExplicit), int64(1), uint8(0), encodeStream(s.samples...))
	}
	for kind := streamAffine; kind < numStreamKinds; kind++ {
		f.Add(uint8(3), uint8(kind), int64(kind), uint8(40), []byte(nil))
		f.Add(uint8(6), uint8(kind), int64(100+kind), uint8(60), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, m, kind uint8, seed int64, n uint8, raw []byte) {
		dim := int(m % 7)
		diffFitters(t, dim, genFitterStream(int(kind%numStreamKinds), dim, seed, int(n), raw), seed)
	})
}

// TestFitterDifferential runs FuzzFitter's generators over a fixed set
// of seeds on every test run.
func TestFitterDifferential(t *testing.T) {
	for kind := streamAffine; kind < numStreamKinds; kind++ {
		for seed := int64(0); seed < 40; seed++ {
			m := int(seed % 7)
			diffFitters(t, m, genFitterStream(kind, m, seed, 50, nil), seed)
		}
	}
	for _, s := range fitterSeeds {
		for seed := int64(0); seed < 8; seed++ {
			diffFitters(t, s.m, genFitterStream(streamExplicit, s.m, 0, 0, encodeStream(s.samples...)), seed)
		}
	}
}

// TestFitterOverflowPromotes pins the big.Int width: coordinates near
// ±2^40 overflow int64 elimination, and the promoted fitter still
// solves the stream exactly.
func TestFitterOverflowPromotes(t *testing.T) {
	f := NewFitter(3)
	pts := [][]int64{{1 << 40, 3, -(1 << 40) + 7}, {-(1 << 40) + 1, 1 << 40, 5}, {11, -(1 << 40), 1 << 40}, {2, 3, 4}, {1 << 39, 1 << 38, -(1 << 37)}}
	for _, x := range pts {
		if !f.Add(x, 3*x[0]-2*x[1]+x[2]+17) {
			t.Fatalf("fit failed at %v", x)
		}
	}
	if f.nWide == 0 {
		t.Error("no sample took the big.Int path")
	}
	e, ok := f.Solve()
	if !ok || e.C[0] != 3 || e.C[1] != -2 || e.C[2] != 1 || e.K != 17 {
		t.Errorf("solved %v ok=%v, want 3a - 2b + c + 17", e, ok)
	}
	if got := f.nSolved + f.nInt64 + f.nWide; got != f.Samples() {
		t.Errorf("path counts sum to %d, want %d samples", got, f.Samples())
	}
}

// TestFitterSteadyStateAllocs gates the per-sample cost: once a fitter
// has learned its basis, Add and Check allocate nothing — both on a
// rank-deficient stream (one coordinate never varies, so the basis
// never reaches full rank and every sample is eliminated) and on a
// solved one.
func TestFitterSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		fill   func(x []int64, i int64)
		solved bool
	}{
		{"rank-deficient", func(x []int64, i int64) { x[0], x[1], x[2] = i%7, 4, i/7 }, false},
		{"solved", func(x []int64, i int64) { x[0], x[1], x[2] = i%7, i%3, i/7 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := NewFitter(3)
			var i int64
			x := make([]int64, 3)
			step := func() {
				i++
				tc.fill(x, i)
			}
			label := func() int64 { return 2*x[0] - 5*x[1] + 3*x[2] + 11 }
			for n := 0; n < 30; n++ {
				step()
				f.Add(x, label())
			}
			if f.Failed() || (f.solved != nil) != tc.solved {
				t.Fatalf("warm-up left failed=%v solved=%v", f.Failed(), f.solved != nil)
			}
			if a := testing.AllocsPerRun(500, func() { step(); f.Add(x, label()) }); a != 0 {
				t.Errorf("Add allocates %.1f per sample", a)
			}
			if a := testing.AllocsPerRun(500, func() { step(); f.Check(x, label()) }); a != 0 {
				t.Errorf("Check allocates %.1f per sample", a)
			}
			if f.Failed() || f.nWide != 0 {
				t.Errorf("steady state left failed=%v wide samples=%d", f.Failed(), f.nWide)
			}
		})
	}
}
