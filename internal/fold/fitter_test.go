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
	streamTied               // one coordinate constant, two tied: rank-deficient throughout
	streamWideComp           // starts from wideCompState, whose complement overflows int64
	numStreamKinds
)

// wideCompState is a reduced row-echelon basis over Z^2 whose rows fit
// int64 but whose complement does not: rows [0, a, 1 | 5] (a =
// 3·2^30+1) and [q, 7, 0 | 11] (q = 2^40+15) put q·a, about 2^72, into
// the complement vector of the free x1 column.  The samples
// [t·q, a+7t, 1 | 5+11t] lie in its span.  No stream fed from scratch
// reached a complement like this in a search of 24M samples over
// random, constant and tied coordinates of up to 31 bits (the basis
// promotes to big.Int first), so the fallback is driven from a
// restored state.
const (
	wideCompA = 3<<30 + 1
	wideCompQ = 1<<40 + 15
)

var wideCompState = FitterState{M: 2, NSamples: 2, Pivot: []int{2, 0}, Rows: [][]string{
	{"0", "3221225473", "1", "5"},
	{"1099511627791", "7", "0", "11"},
}}

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
	if kind == streamWideComp {
		// In-span samples of wideCompState, some nudged off the span.
		for s := 0; s < n; s++ {
			t := r.Int63n(21) - 10
			x, y := []int64{t * wideCompQ, wideCompA + 7*t}, 5+11*t
			switch r.Intn(8) {
			case 0:
				x[1]++
			case 1:
				y++
			}
			out = append(out, fitSample{x: x, y: y})
		}
		return out
	}
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
			case streamTied:
				switch {
				case i == m-1 && m > 1:
					x[i] = 4
				case i == 1 && m > 2:
					x[i] = 2*x[0] - 3
				default:
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

// fitPair is an integer fitter and the reference it must agree with.
type fitPair struct {
	got *Fitter
	ref *ratFitter
	rev bool // fed the stream back to front
}

// diffFitters feeds the stream to the integer fitter and the big.Rat
// reference and fails on the first sample where they disagree.  The
// seed picks a mix of Check only, Add only, Check then Add, Check then
// commit, and Check of a second sample in between (which Add must not
// take the verdict of); clones and checkpoint round trips (current and
// rational-era formats); and, at most once per stream, a fork: a clone
// pair that goes on with the rest of the stream back to front while the
// original pair keeps going forward, so the copies must not share
// state.
func diffFitters(t *testing.T, m int, stream []fitSample, seed int64) {
	t.Helper()
	diffFittersFrom(t, fitPair{got: NewFitter(m), ref: newRatFitter(m)}, stream, seed)
}

func diffFittersFrom(t *testing.T, start fitPair, stream []fitSample, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pairs := []fitPair{start}
	for i := range stream {
		if len(pairs) == 1 && r.Intn(16) == 0 {
			pairs = append(pairs, fitPair{got: pairs[0].got.Clone(), ref: pairs[0].ref.clone(), rev: true})
		}
		for k := range pairs {
			p := &pairs[k]
			s, other := stream[i], stream[(i+1)%len(stream)]
			if p.rev {
				s, other = stream[len(stream)-1-i], stream[(2*len(stream)-2-i)%len(stream)]
			}
			stepFitters(t, p, i, s, other, r)
		}
	}
}

// stepFitters applies one seeded step of diffFitters to a pair.
func stepFitters(t *testing.T, p *fitPair, i int, s, other fitSample, r *rand.Rand) {
	t.Helper()
	// Both checkpoint round trips must land on the very rows the
	// fitter held: the basis is canonical.
	switch before := p.got.State(); r.Intn(8) {
	case 0:
		blob, err := json.Marshal(before)
		if err != nil {
			t.Fatal(err)
		}
		var st FitterState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		if p.got, err = RestoreFitter(st); err != nil {
			t.Fatalf("sample %d: restore: %v", i, err)
		}
		if after := p.got.State(); !reflect.DeepEqual(after, before) {
			t.Fatalf("sample %d: state round trip %+v, want %+v", i, after, before)
		}
	case 1:
		var err error
		if p.got, err = RestoreFitter(p.ref.state()); err != nil {
			t.Fatalf("sample %d: restore rational state: %v", i, err)
		}
		if after := p.got.State(); !reflect.DeepEqual(after, before) {
			t.Fatalf("sample %d: rational state restores to %+v, want %+v", i, after, before)
		}
	case 2:
		p.got = p.got.Clone()
	}
	check := func(s fitSample) bool {
		t.Helper()
		g, w := p.got.Check(s.x, s.y), p.ref.Check(s.x, s.y)
		if g != w {
			t.Fatalf("sample %d %v->%d: Check = %v, reference %v", i, s.x, s.y, g, w)
		}
		return g
	}
	add := func(commit bool) {
		t.Helper()
		var g bool
		if commit {
			p.got.commit(s.x, s.y)
			g = !p.got.Failed()
		} else {
			g = p.got.Add(s.x, s.y)
		}
		if w := p.ref.Add(s.x, s.y); g != w {
			t.Fatalf("sample %d %v->%d: Add (commit %v) = %v, reference %v", i, s.x, s.y, commit, g, w)
		}
	}
	switch r.Intn(6) {
	case 0: // Check only
		check(s)
	case 1: // Add only
		add(false)
	case 2: // Check then Add
		check(s)
		add(false)
	case 3: // Check then commit, as MultiFolder does
		add(check(s))
	case 4: // a verdict for another sample must not leak into Add
		check(s)
		check(other)
		add(false)
	case 5:
		check(other)
		add(check(s))
	}
	if p.got.Failed() != p.ref.Failed() {
		t.Fatalf("sample %d: Failed = %v, reference %v", i, p.got.Failed(), p.ref.Failed())
	}
	ge, gok := p.got.Solve()
	we, wok := p.ref.Solve()
	if !sameSolve(ge, gok, we, wok) {
		t.Fatalf("sample %d: Solve = %v,%v, reference %v,%v", i, ge, gok, we, wok)
	}
	if n := p.got.nSolved + p.got.nScreened + p.got.nInt64 + p.got.nWide; n > p.got.Samples() {
		t.Fatalf("sample %d: %d samples counted on paths, %d fed", i, n, p.got.Samples())
	}
}

// startFitters returns the pair a stream of the kind starts from.
func startFitters(t *testing.T, kind, m int) (fitPair, int) {
	if kind != streamWideComp {
		return fitPair{got: NewFitter(m), ref: newRatFitter(m)}, m
	}
	got, err := RestoreFitter(wideCompState)
	if err != nil {
		t.Fatal(err)
	}
	return fitPair{got: got, ref: restoreRatFitter(wideCompState)}, wideCompState.M
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
		k := int(kind % numStreamKinds)
		start, dim := startFitters(t, k, int(m%7))
		diffFittersFrom(t, start, genFitterStream(k, dim, seed, int(n), raw), seed)
	})
}

// TestFitterDifferential runs FuzzFitter's generators over a fixed set
// of seeds on every test run.
func TestFitterDifferential(t *testing.T) {
	for kind := streamAffine; kind < numStreamKinds; kind++ {
		for seed := int64(0); seed < 40; seed++ {
			start, m := startFitters(t, kind, int(seed%7))
			diffFittersFrom(t, start, genFitterStream(kind, m, seed, 50, nil), seed)
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
	if got := f.nSolved + f.nScreened + f.nInt64 + f.nWide; got != f.Samples() {
		t.Errorf("path counts sum to %d, want %d samples", got, f.Samples())
	}
}

// TestFitterSteadyStateAllocs gates the per-sample cost: once a fitter
// has learned its basis, Add, Check and the commit after a Check
// allocate nothing — both on a rank-deficient stream (one coordinate
// never varies, so the basis never reaches full rank and every sample
// is in-span, decided by the complement screen) and on a solved one.
// Rebuilding the complement allocates nothing either.
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
			int64s := f.nInt64
			if a := testing.AllocsPerRun(500, func() { step(); f.Add(x, label()) }); a != 0 {
				t.Errorf("Add allocates %.1f per sample", a)
			}
			if a := testing.AllocsPerRun(500, func() { step(); f.Check(x, label()) }); a != 0 {
				t.Errorf("Check allocates %.1f per sample", a)
			}
			if a := testing.AllocsPerRun(500, func() {
				step()
				if !f.Check(x, label()) || f.verdict == 0 {
					t.Fatal("in-span sample not accepted without a state change")
				}
				f.commit(x, label())
			}); a != 0 {
				t.Errorf("Check then commit allocates %.1f per sample", a)
			}
			if f.Failed() || f.nWide != 0 || f.nInt64 != int64s {
				t.Errorf("steady state left failed=%v wide samples=%d, and eliminated %d samples", f.Failed(), f.nWide, f.nInt64-int64s)
			}
			if !tc.solved {
				if a := testing.AllocsPerRun(100, f.buildComp); a != 0 {
					t.Errorf("complement rebuild allocates %.1f", a)
				}
				if f.compBits >= 63 || f.nComp != 2 {
					t.Errorf("complement has %d vectors of %d bits, want 2 that fit", f.nComp, f.compBits)
				}
			}
		})
	}
}

// TestFitterComplementOverflowFallsBack restores wideCompState, whose
// complement overflows int64: the screen turns itself off, in-span
// samples are decided by elimination (as redundant, at the int64
// width), and every decision matches the reference.
func TestFitterComplementOverflowFallsBack(t *testing.T) {
	p, _ := startFitters(t, streamWideComp, 0)
	f, ref := p.got, p.ref
	for k := int64(-3); k <= 3; k++ {
		x, y := []int64{k * wideCompQ, wideCompA + 7*k}, 5+11*k
		if g, w := f.Check(x, y), ref.Check(x, y); g != true || w != true {
			t.Fatalf("t=%d: in-span Check = %v, reference %v", k, g, w)
		}
		if g, w := f.Add(x, y), ref.Add(x, y); g != true || w != true {
			t.Fatalf("t=%d: in-span Add = %v, reference %v", k, g, w)
		}
	}
	if f.compRank != 2 || f.compBits != 64 {
		t.Fatalf("complement built for rank %d with %d bits, want rank 2 overflowed (64)", f.compRank, f.compBits)
	}
	if f.nScreened != 0 || f.nInt64 != 7 || f.mat == nil {
		t.Errorf("screened %d, eliminated %d at int64 (width int64: %v); want 0, 7, true", f.nScreened, f.nInt64, f.mat != nil)
	}
	// An independent sample is eliminated like the reference's.
	if g, w := f.Add([]int64{0, 0}, 0), ref.Add([]int64{0, 0}, 0); g != w {
		t.Fatalf("independent Add = %v, reference %v", g, w)
	}
}

// TestFitterCloneIndependent: a clone and its original share no
// derived state.  Both sit at rank 2 of 4 with a built complement.  The
// clone takes an independent sample, and a Check rebuilds the clone's
// complement.  Then the original takes the same sample, which is
// independent for it too and must extend its basis exactly as in a
// fitter never cloned.
func TestFitterCloneIndependent(t *testing.T) {
	warm := func() *Fitter {
		f := NewFitter(3)
		for i := int64(0); i < 3; i++ {
			f.Add([]int64{i, 5, 7}, 2*i+1)
		}
		return f
	}
	x, y := []int64{0, 6, 7}, int64(1)
	want := warm()
	want.Add(x, y)

	orig := warm()
	clone := orig.Clone()
	clone.Add(x, y)
	clone.Check(x, y)
	orig.Add(x, y)
	for _, f := range []*Fitter{orig, clone} {
		if got := f.State(); !reflect.DeepEqual(got, want.State()) {
			t.Fatalf("state %+v, want %+v", got, want.State())
		}
	}
}

// TestFitterAddIgnoresVerdict: a verdict Check left for one sample is
// never taken by a plain Add of another.  Check(A) accepts an in-span
// sample without a state change; Add(B) of a contradiction must still
// fail the fit.
func TestFitterAddIgnoresVerdict(t *testing.T) {
	f := NewFitter(2)
	for _, x := range [][]int64{{0, 4}, {1, 4}, {2, 4}} {
		f.Add(x, 3*x[0]+1)
	}
	a := []int64{5, 4}
	if !f.Check(a, 16) || f.verdict != pathScreened {
		t.Fatalf("in-span Check: verdict %d, want %d", f.verdict, pathScreened)
	}
	if f.Add([]int64{6, 4}, 0) || !f.Failed() {
		t.Fatal("a contradiction was accepted on a stale verdict")
	}
}
