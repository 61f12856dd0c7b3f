package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"polyprof"
)

// setupReps is how many times a pipeline run repeats its set-up.
const setupReps = 15

// setupCost collects the wall and CPU time of each repetition of a
// set-up, in seconds, with a calibration sample after each.
type setupCost struct {
	wall, cpu []float64
	cal       *calibrator
}

func (s *setupCost) time(f func() error) error {
	c0, t0 := processCPU(), time.Now()
	err := f()
	s.wall = append(s.wall, time.Since(t0).Seconds())
	s.cpu = append(s.cpu, (processCPU() - c0).Seconds())
	if s.cal == nil {
		s.cal = newCalibrator()
	}
	s.cal.rep()
	return err
}

// record reports the median repetition: setup_s in reference
// CPU-seconds, which neither the hypervisor's other guests nor the
// host's drifting speed move, and its CPU and wall time beside.
func (s *setupCost) record(o *outcome) {
	o.set("setup_s", median(s.cpu)*s.cal.scale(), "s")
	o.set("setup_cpu_s", median(s.cpu), "s")
	o.set("setup_wall_s", median(s.wall), "s")
}

// setCPURates records the throughput of cpu seconds of work, per CPU
// second and per reference CPU-second (cpu scaled by scale).
func setCPURates(o *outcome, ops uint64, jobs int, cpu time.Duration, scale float64) {
	o.set("ops_per_cpu_s", float64(ops)/cpu.Seconds(), "ops/cpu-s")
	o.set("jobs_per_cpu_s", float64(jobs)/cpu.Seconds(), "jobs/cpu-s")
	ref := cpu.Seconds() * scale
	o.set("ops_per_ref_cpu_s", float64(ops)/ref, "ops/ref-cpu-s")
	o.set("jobs_per_ref_cpu_s", float64(jobs)/ref, "jobs/ref-cpu-s")
	o.note("calib_scale", scale)
}

// buildPrograms builds copies of every program of the set setupReps
// times and keeps the last build.
func buildPrograms(names []string, copies int) ([]map[string]*polyprof.Program, *setupCost, error) {
	var sets []map[string]*polyprof.Program
	cost := &setupCost{}
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		err := cost.time(func() error {
			sets = nil
			for range copies {
				progs := map[string]*polyprof.Program{}
				for _, n := range names {
					p, err := polyprof.Workload(n)
					if err != nil {
						return err
					}
					progs[n] = p
				}
				sets = append(sets, progs)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return sets, cost, nil
}

// pipelineCall is one library call of a pipeline workload: the
// program's report, and its optimize report when the workload
// optimizes.
func pipelineCall(ctx context.Context, prog *polyprof.Program, optimize bool) (*polyprof.Report, *polyprof.OptimizeReport, error) {
	if optimize {
		return polyprof.OptimizeWith(ctx, prog, polyprof.ProfileOptions{}, 0)
	}
	rep, err := polyprof.ProfileWith(ctx, prog, polyprof.ProfileOptions{})
	return rep, nil, err
}

// checkCall validates one call's outputs and returns the profiled
// instruction count.
func checkCall(c *checker, name string, rep *polyprof.Report, opt *polyprof.OptimizeReport) (uint64, error) {
	data, err := reportJSON(rep)
	if err != nil {
		return 0, err
	}
	ops, err := c.checkReport(name, data)
	if err != nil {
		return 0, err
	}
	if opt != nil {
		if err := c.checkOptimize(name, opt); err != nil {
			return 0, err
		}
	}
	return ops, nil
}

// callQueue hands the calls of whole seeded rounds to the streams of
// a pipeline run, and starts no round once another would overrun the
// run's budget (at least one round is always handed out).
type callQueue struct {
	mu      sync.Mutex
	rs      *rounds
	pending []string
	start   time.Time
	budget  time.Duration
	rounds  int
	calls   int
	// roundStart is when the latest round was started; its length
	// guesses how far another round would overrun.
	roundStart time.Time
	// peaks holds each finished round's resident-set peak: the median
	// over rounds is not moved by the odd round whose garbage
	// collection fell behind.
	peaks []float64
}

func newCallQueue(seed int64, progs []string, budget time.Duration) *callQueue {
	return &callQueue{rs: newRounds(seed, progs), budget: budget, start: time.Now()}
}

func (q *callQueue) next() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		now := time.Now()
		if q.rounds > 0 {
			if now.Sub(q.start)+now.Sub(q.roundStart) > q.budget {
				return "", false
			}
			q.endRound()
		}
		q.pending = q.rs.next()
		q.rounds++
		q.roundStart = now
	}
	name := q.pending[0]
	q.pending = q.pending[1:]
	q.calls++
	return name, true
}

// endRound records the resident-set peak since the latest round
// started and restarts the high-water mark for the next round.
func (q *callQueue) endRound() {
	q.peaks = append(q.peaks, peakRSSMiB())
	resetPeakRSS()
}

// stream is one goroutine's share of a pipeline run: its own copy of
// the programs, its calibrator, and what it measured.
type stream struct {
	progs    map[string]*polyprof.Program
	cal      *calibrator
	lat      []float64
	ops      uint64
	good     int
	speedups map[string]float64
	failures []error
	// aside is the thread CPU time spent checking outputs and
	// calibrating, which the run's CPU time does not charge to the
	// library.
	aside time.Duration
}

// run takes calls from q until it is drained.  Each output check runs
// on a locked thread so its CPU time can be set aside; after each call
// the stream calibrates for a share of the call's time.
func (s *stream) run(ctx context.Context, q *callQueue, optimize bool, c *checker) {
	for {
		name, ok := q.next()
		if !ok {
			return
		}
		t0 := time.Now()
		rep, opt, err := pipelineCall(ctx, s.progs[name], optimize)
		d := time.Since(t0)
		var n uint64
		if err == nil {
			runtime.LockOSThread()
			c0 := threadCPU()
			n, err = checkCall(c, name, rep, opt)
			s.aside += threadCPU() - c0
			runtime.UnlockOSThread()
		}
		if err != nil {
			s.failures = append(s.failures, fmt.Errorf("%s: %w", name, err))
		} else {
			s.good++
			s.lat = append(s.lat, ms(d))
			s.ops += n
			if opt != nil && opt.BestSpeedup > 0 {
				s.speedups[name] = opt.BestSpeedup
			}
		}
		s.aside += s.cal.calibrateFor(d)
	}
}

// runPipeline is the untraced run of fold-heavy and optimize-affine:
// whole seeded rounds of library calls, one call per program, shared
// by one stream per CPU (at most two) so the host sees the same load
// throughout, until another round would overrun the run length (at
// least one round).
func runPipeline(ctx context.Context, w workloadSpec, seed int64, seconds int, c *checker) (*outcome, error) {
	sets, setup, err := buildPrograms(w.programs, clientCount())
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	setup.record(o)
	o.note("streams", len(sets))

	streams := make([]*stream, len(sets))
	for i, progs := range sets {
		streams[i] = &stream{progs: progs, cal: newCalibrator(), speedups: map[string]float64{}}
	}
	o.note("peak_rss_reset", resetPeakRSS())
	runtime.GC()
	cpu0 := processCPU()
	q := newCallQueue(seed, w.programs, time.Duration(seconds)*time.Second)
	var (
		wg       sync.WaitGroup
		running  atomic.Int32
		firstOut time.Time
		outOnce  sync.Once
	)
	running.Store(int32(len(streams)))
	for _, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(ctx, q, w.optimize, c)
			outOnce.Do(func() { firstOut = time.Now() })
			// Keep this CPU as busy as before while the other streams
			// finish their last calls, so the host's load stays the same
			// to the end.  These repetitions are not samples: the run's
			// samples stay spread like its calls.
			running.Add(-1)
			filler := newCalibrator()
			for running.Load() > 0 {
				s.aside += filler.rep()
			}
		}()
	}
	wg.Wait()
	// tail is how long the last stream ran on after the first ran out
	// of calls.
	tail := time.Since(firstOut)
	wall := time.Since(q.start)
	cpu := processCPU() - cpu0

	var (
		lat      []float64
		ops      uint64
		good     int
		samples  []float64
		speedups = map[string]float64{}
	)
	for _, s := range streams {
		lat = append(lat, s.lat...)
		ops += s.ops
		good += s.good
		cpu -= s.aside
		samples = append(samples, s.cal.samples...)
		for _, err := range s.failures {
			o.fail(err)
		}
		for n, v := range s.speedups {
			speedups[n] = v
		}
	}
	o.attempted = q.calls
	all := calibrator{samples: samples}
	o.note("rounds", q.rounds)
	o.note("tail_s", tail.Seconds())
	o.note("calib_samples", len(samples))
	o.set("calib_ms", median(samples)*1e3, "ms")
	o.set("ops_per_s", float64(ops)/wall.Seconds(), "ops/s")
	o.set("jobs_per_s", float64(good)/wall.Seconds(), "jobs/s")
	setCPURates(o, ops, good, cpu, all.scale())
	o.latency("latency", lat)
	q.endRound()
	o.set("peak_rss_mb", median(q.peaks), "MiB")
	if w.optimize {
		var xs []float64
		for _, s := range speedups {
			xs = append(xs, s)
		}
		if len(xs) > 0 {
			o.set("opt_speedup_geomean", geomean(xs), "x")
		}
		o.note("opt_speedup_programs", len(xs))
	}
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
