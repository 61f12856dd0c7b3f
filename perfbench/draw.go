package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
)

// Program sets of the four workloads; RATIONALE.md says why each
// program is in its set.
var (
	// foldHeavy are the programs whose pass-2 time is at least 95%
	// dependence-builder self time.
	foldHeavy = []string{
		"srad_v1", "srad_v2", "hotspot", "hotspot3D", "kmeans", "streamcluster",
		"heat-3d", "heartwall", "particlefilter", "doitgen", "jacobi-2d", "seidel-2d",
	}
	// optimizeAffine are small affine kernels whose profile takes at
	// most 250 ms.
	optimizeAffine = []string{
		"backprop", "nn", "nw", "pathfinder", "bfs", "b+tree",
		"atax", "bicg", "mvt", "syrk", "trisolv", "cholesky",
	}
	// jobPrograms are the small programs of the job request stream.
	jobPrograms = []string{
		"example1", "example2", "trisolv", "bicg", "atax", "mvt", "syrk", "nn",
	}
)

// epochEvents is the ?epoch-events grid of a streamed job, about a
// quarter of the program's dynamic instructions, so every streamed job
// commits four or five fsynced checkpoint epochs.
var epochEvents = map[string]uint64{
	"example1": 20, "example2": 16, "trisolv": 1900, "bicg": 1700,
	"atax": 2000, "mvt": 3300, "syrk": 4000, "nn": 11000,
}

// workloadSpec names one benchmark workload and its program set.
type workloadSpec struct {
	name     string
	programs []string
	jobs     bool // driven through the serve daemon
	lease    bool // lease-only coordinator with remote-protocol workers
	optimize bool // OptimizeWith instead of ProfileWith
	// tracedPrograms is how many programs of the seeded order the
	// traced run decomposes layer by layer (0: all of them).
	tracedPrograms int
	// traceJobPath makes the traced run also drive the job request
	// stream through a daemon, measuring the job-path layers.
	traceJobPath bool
}

var workloadSpecs = []workloadSpec{
	{name: "fold-heavy", programs: foldHeavy, tracedPrograms: 2},
	// optimize-affine's traced run carries the job-path layers: the job
	// workloads are too unsteady on a shared host to be gated, and the
	// traced runs of gated workloads must still measure every layer.
	{name: "optimize-affine", programs: optimizeAffine, optimize: true, traceJobPath: true},
	{name: "jobs-local", programs: jobPrograms, jobs: true, traceJobPath: true},
	{name: "jobs-lease", programs: jobPrograms, jobs: true, lease: true, traceJobPath: true},
}

func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// rounds draws the program order of a pipeline workload: round r is a
// permutation of the whole set, all rounds fixed by the seed.  Whole
// rounds keep the program mix identical between seeds, so a seed
// changes the order, never the mix.
type rounds struct {
	rng   *rand.Rand
	progs []string
}

func newRounds(seed int64, progs []string) *rounds {
	return &rounds{rng: rand.New(rand.NewSource(seed)), progs: progs}
}

func (r *rounds) next() []string {
	out := append([]string(nil), r.progs...)
	r.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Request kinds of the job stream.
const (
	kindBuffered = "buffered" // fresh buffered job (?nocache=1)
	kindStreamed = "streamed" // fresh streamed job (?nocache=1&epoch-events=N)
	kindHit      = "hit"      // duplicate the result cache answers
)

// request is one submission of the job stream.
type request struct {
	Program string `json:"program"`
	Kind    string `json:"kind"`
}

// path is the submission URL of the request.
func (q request) path() string {
	p := "/v1/jobs?workload=" + q.Program
	switch q.Kind {
	case kindBuffered:
		p += "&nocache=1"
	case kindStreamed:
		p += fmt.Sprintf("&nocache=1&epoch-events=%d", epochEvents[q.Program])
	}
	return p
}

// requestStream is one closed-loop client's endless request sequence,
// fixed by the seed and the client index.  It is a series of shuffled
// blocks, each holding every program twice as a cache hit and once
// each as a fresh buffered and a fresh streamed job, so any prefix has
// the same mix up to one block: the seed changes the order, never the
// mix.
type requestStream struct {
	rng   *rand.Rand
	progs []string
	block []request
}

func newRequestStream(seed int64, client int, progs []string) *requestStream {
	return &requestStream{rng: rand.New(rand.NewSource(seed*1000003 + int64(client))), progs: progs}
}

func (s *requestStream) next() request {
	if len(s.block) == 0 {
		for _, p := range s.progs {
			for _, k := range []string{kindHit, kindHit, kindBuffered, kindStreamed} {
				s.block = append(s.block, request{Program: p, Kind: k})
			}
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	q := s.block[0]
	s.block = s.block[1:]
	return q
}

// drawDigest fingerprints what the seed fixes for a workload: the first
// rounds of the program order, or each client's first request blocks.
// Runs report it, so two runs claiming one seed can be checked to have
// drawn the same inputs.
func drawDigest(w workloadSpec, seed int64) string {
	h := sha256.New()
	if w.jobs {
		for c := 0; c < clientCount(); c++ {
			s := newRequestStream(seed, c, w.programs)
			for i := 0; i < 4*4*len(w.programs); i++ {
				q := s.next()
				fmt.Fprintf(h, "%d %s %s\n", c, q.Program, q.Kind)
			}
		}
	} else {
		r := newRounds(seed, w.programs)
		for i := 0; i < 4; i++ {
			fmt.Fprintln(h, strings.Join(r.next(), " "))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
