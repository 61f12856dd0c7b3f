package main

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestRoundsAreSeededPermutations(t *testing.T) {
	a, b := newRounds(1, foldHeavy), newRounds(1, foldHeavy)
	other := newRounds(2, foldHeavy)
	differs := false
	for r := 0; r < 5; r++ {
		ra, rb, ro := a.next(), b.next(), other.next()
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("round %d differs under the same seed: %v vs %v", r, ra, rb)
		}
		if !reflect.DeepEqual(ra, ro) {
			differs = true
		}
		sorted := append([]string(nil), ra...)
		sort.Strings(sorted)
		want := append([]string(nil), foldHeavy...)
		sort.Strings(want)
		if !reflect.DeepEqual(sorted, want) {
			t.Fatalf("round %d is not a permutation of the set: %v", r, ra)
		}
	}
	if !differs {
		t.Error("seeds 1 and 2 drew the same order for five rounds")
	}
}

func TestRequestStreamIsSeededWithFixedMix(t *testing.T) {
	block := 4 * len(jobPrograms)
	for client := 0; client < 2; client++ {
		a := newRequestStream(1, client, jobPrograms)
		b := newRequestStream(1, client, jobPrograms)
		counts := map[request]int{}
		for i := 0; i < 3*block; i++ {
			qa, qb := a.next(), b.next()
			if qa != qb {
				t.Fatalf("client %d request %d differs under the same seed: %v vs %v", client, i, qa, qb)
			}
			counts[qa]++
		}
		for _, p := range jobPrograms {
			if counts[request{p, kindHit}] != 6 || counts[request{p, kindBuffered}] != 3 || counts[request{p, kindStreamed}] != 3 {
				t.Errorf("client %d: %s drawn %d/%d/%d times as hit/buffered/streamed in three blocks",
					client, p, counts[request{p, kindHit}], counts[request{p, kindBuffered}], counts[request{p, kindStreamed}])
			}
		}
	}
	x, y := newRequestStream(1, 0, jobPrograms), newRequestStream(1, 1, jobPrograms)
	same := true
	for i := 0; i < block; i++ {
		if x.next() != y.next() {
			same = false
		}
	}
	if same {
		t.Error("the two clients of one seed send the same stream")
	}
}

func TestRequestPaths(t *testing.T) {
	cases := map[request]string{
		{"nn", kindHit}:        "/v1/jobs?workload=nn",
		{"nn", kindBuffered}:   "/v1/jobs?workload=nn&nocache=1",
		{"atax", kindStreamed}: "/v1/jobs?workload=atax&nocache=1&epoch-events=2000",
	}
	for q, want := range cases {
		if got := q.path(); got != want {
			t.Errorf("%v.path() = %q, want %q", q, got, want)
		}
	}
	for _, p := range jobPrograms {
		if epochEvents[p] == 0 {
			t.Errorf("%s has no streaming epoch grid", p)
		}
	}
}

func TestDrawDigestRepeats(t *testing.T) {
	for _, w := range workloadSpecs {
		if drawDigest(w, 1) != drawDigest(w, 1) {
			t.Errorf("%s: draw digest differs under the same seed", w.name)
		}
		if drawDigest(w, 1) == drawDigest(w, 2) {
			t.Errorf("%s: seeds 1 and 2 have the same draw digest", w.name)
		}
	}
}

func TestCallQueueHandsWholeSeededRounds(t *testing.T) {
	// A spent budget still hands out one whole round, in the seeded order.
	q := newCallQueue(3, optimizeAffine, 0)
	var got []string
	for {
		name, ok := q.next()
		if !ok {
			break
		}
		got = append(got, name)
	}
	if want := newRounds(3, optimizeAffine).next(); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero budget handed %v, want the first seeded round %v", got, want)
	}
	if q.rounds != 1 || q.calls != len(optimizeAffine) {
		t.Errorf("rounds=%d calls=%d, want 1 and %d", q.rounds, q.calls, len(optimizeAffine))
	}

	// A generous budget keeps going round after round, never cutting one.
	q = newCallQueue(3, optimizeAffine, time.Hour)
	rs := newRounds(3, optimizeAffine)
	for r := 0; r < 3; r++ {
		for i, want := range rs.next() {
			if name, ok := q.next(); !ok || name != want {
				t.Fatalf("round %d call %d = %q, %v; want %q", r, i, name, ok, want)
			}
		}
	}
}
