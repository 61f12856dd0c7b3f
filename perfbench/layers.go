package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"polyprof"
	"polyprof/internal/core"
	"polyprof/internal/ddg"
	"polyprof/internal/feedback"
	"polyprof/internal/jobexec"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/parddg"
	"polyprof/internal/sched"
	"polyprof/internal/transform"
	"polyprof/internal/vm"
)

// span is one timed call into a layer.
type span struct {
	name string
	dur  time.Duration
}

// spans records the traced run's spans in memory; they are summed per
// layer when the run ends.
type spans []span

// time runs f under a span named name.
func (s *spans) time(name string, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	*s = append(*s, span{name, d})
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

func (s spans) total(name string) float64 {
	var t time.Duration
	for _, sp := range s {
		if sp.name == name {
			t += sp.dur
		}
	}
	return t.Seconds()
}

// layerSums accumulates the decomposition over the traced programs.
type layerSums struct {
	spans      spans
	iivSelf    float64
	ddgSelf    float64
	vmOps      uint64
	allocBytes uint64
	mallocs    uint64

	memEvents, depsFolded, depsEmitted uint64
	shadowWords                        int64

	applied, verified, refused int
	programs                   []string
	// shares are each program's ddg self-time share of its layer-by-layer
	// profile, and transform share of that profile plus transform.
	shares map[string]programShares
}

type programShares struct {
	DDGSelfFrac   float64 `json:"ddg_self_frac"`
	TransformFrac float64 `json:"transform_frac"`
}

// decompose runs one program end to end untraced, then again layer by
// layer with a span around each layer's public entry point, checking
// both reports against the reference.
func decompose(ctx context.Context, name string, prog *polyprof.Program, optimize bool, c *checker, ls *layerSums) error {
	var e2e struct {
		rep *polyprof.Report
		opt *polyprof.OptimizeReport
	}
	if _, err := ls.spans.time("e2e", func() (err error) {
		e2e.rep, e2e.opt, err = pipelineCall(ctx, prog, optimize)
		return err
	}); err != nil {
		return err
	}
	if _, err := checkCall(c, name, e2e.rep, e2e.opt); err != nil {
		return err
	}

	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	sc := reg.Scope()

	var ops uint64
	tVM, err := ls.spans.time("vm", func() error {
		m := vm.New(prog)
		err := m.Run()
		ops = m.Stats().Ops
		return err
	})
	if err != nil {
		return err
	}
	var st *core.Structure
	tPass1, err := ls.spans.time("pass1", func() (err error) {
		st, err = core.AnalyzeStructureScoped(prog, nil, sc, nil)
		return err
	})
	if err != nil {
		return err
	}
	tNil, err := ls.spans.time("pass2-nil", func() error {
		_, _, err := core.RunPass2Scoped(prog, st, nil, nil, sc, nil)
		return err
	})
	if err != nil {
		return err
	}

	opts := ddg.DefaultOptions()
	opts.Obs = sc
	b := ddg.NewBuilder(prog, opts)
	var (
		p2            *core.Pass2
		stats         vm.Stats
		before, after runtime.MemStats
	)
	runtime.ReadMemStats(&before)
	tDDG, err := ls.spans.time("pass2-ddg", func() (err error) {
		p2, stats, err = core.RunPass2Scoped(prog, st, b, nil, sc, nil)
		return err
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	var g *ddg.Graph
	tFin, err := ls.spans.time("fold-finish", func() (err error) {
		g, err = b.FinishChecked()
		return err
	})
	if err != nil {
		return err
	}
	ddgSelf := selfTime(tDDG.Seconds(), tNil.Seconds())
	ls.iivSelf += selfTime(tNil.Seconds(), tVM.Seconds())
	ls.ddgSelf += ddgSelf
	ls.vmOps += ops
	ls.allocBytes += after.TotalAlloc - before.TotalAlloc
	ls.mallocs += after.Mallocs - before.Mallocs
	ls.memEvents += reg.Counter("ddg.events.mem").Value()
	ls.depsFolded += reg.Counter("ddg.deps.folded").Value()
	ls.depsEmitted += reg.Counter("ddg.deps.emitted").Value()
	ls.shadowWords = max(ls.shadowWords, reg.Gauge("ddg.shadow.words").Value())

	profile := &core.Profile{Prog: prog, Structure: st, Tree: p2.Tree, DDG: g, Stats: stats, Obs: sc}
	var model *sched.Model
	tSched, _ := ls.spans.time("sched-build", func() error {
		model = sched.Build(profile)
		return nil
	})
	var rep *feedback.Report
	tFb, _ := ls.spans.time("feedback-analyze", func() error {
		rep = feedback.AnalyzeModel(profile, model)
		return nil
	})
	data, err := reportJSON(rep)
	if err != nil {
		return err
	}
	if _, err := c.checkReport(name, data); err != nil {
		return fmt.Errorf("layer-by-layer run: %w", err)
	}
	var opt *transform.Report
	tTr, err := ls.spans.time("transform", func() (err error) {
		opt, err = transform.Optimize(profile, model, rep.AllTransforms(), transform.Options{Obs: sc})
		return err
	})
	if err != nil {
		return err
	}
	if ls.shares == nil {
		ls.shares = map[string]programShares{}
	}
	profiled := (tPass1 + tDDG + tFin + tSched + tFb).Seconds()
	ls.shares[name] = programShares{
		DDGSelfFrac:   ddgSelf / profiled,
		TransformFrac: tTr.Seconds() / (profiled + tTr.Seconds()),
	}
	if err := c.checkOptimize(name, opt); err != nil {
		return fmt.Errorf("layer-by-layer run: %w", err)
	}
	if opt.Refused != nil {
		ls.refused++
	}
	for _, cand := range opt.Candidates {
		if cand.Refused != nil {
			ls.refused++
		}
		for _, v := range cand.Variants {
			switch {
			case v.Refused != nil:
				ls.refused++
			case v.Applied:
				ls.applied++
				if v.Verified {
					ls.verified++
				}
			}
		}
	}

	// Off the default path: the sharded engine and the streaming driver.
	if _, err := ls.spans.time("parddg", func() error {
		popts := ddg.DefaultOptions()
		popts.Obs = obs.NewRegistry().Scope()
		eng := parddg.NewEngine(prog, parddg.Options{Shards: runtime.NumCPU(), DDG: popts})
		defer eng.Close()
		if _, _, err := core.RunPass2Scoped(prog, st, eng, nil, popts.Obs, nil); err != nil {
			return err
		}
		_, err := eng.FinishChecked()
		return err
	}); err != nil {
		return err
	}
	if _, err := ls.spans.time("stream", func() error {
		ro := core.DefaultRunOptions()
		ro.Obs = obs.NewRegistry().Scope()
		ro.EpochEvents = max(1, ops/4)
		_, err := core.Run(prog, ro)
		return err
	}); err != nil {
		return err
	}
	ls.programs = append(ls.programs, name)
	return nil
}

// setLayers turns the sums into the per-layer metrics.
func (ls *layerSums) setLayers(o *outcome, optimize bool) {
	s := ls.spans
	ops := float64(ls.vmOps)
	o.set("vm.ns_per_op", s.total("vm")/ops*1e9, "ns/op")
	o.set("cfg.pass1_s", s.total("pass1"), "s")
	o.set("iiv.pass2_self_s", ls.iivSelf, "s")
	o.set("ddg.pass2_self_s", ls.ddgSelf, "s")
	o.set("ddg.ns_per_op", ls.ddgSelf/ops*1e9, "ns/op")
	// The buffered run of core.Run, and the profile it feeds to feedback.
	buffered := s.total("pass1") + s.total("pass2-ddg") + s.total("fold-finish")
	profiled := buffered + s.total("sched-build") + s.total("feedback-analyze")
	o.set("ddg.self_frac", ls.ddgSelf/profiled, "ratio")
	o.set("ddg.alloc_bytes_per_op", float64(ls.allocBytes)/ops, "B/op")
	o.set("ddg.mallocs_per_op", float64(ls.mallocs)/ops, "count/op")
	o.set("fold.finish_s", s.total("fold-finish"), "s")
	o.set("sched.build_s", s.total("sched-build"), "s")
	o.set("feedback.analyze_s", s.total("feedback-analyze"), "s")
	o.set("transform.optimize_s", s.total("transform"), "s")
	// Nothing applied means nothing failed the oracle; the base says so.
	verified := 1.0
	if ls.applied > 0 {
		verified = float64(ls.verified) / float64(ls.applied)
	}
	o.set("transform.verified_frac", verified, "ratio")
	o.note("transform.applied", ls.applied)
	o.set("transform.refused", float64(ls.refused), "count")
	o.set("parddg.pass2_s", s.total("parddg"), "s")
	o.note("parddg.shards", runtime.NumCPU())
	o.set("core.stream_pass2_s", s.total("stream"), "s")
	o.note("core.stream_over_buffered", s.total("stream")/buffered)
	o.set("vm.ops", ops, "count")
	o.set("ddg.events.mem", float64(ls.memEvents), "count")
	o.set("ddg.deps.folded", float64(ls.depsFolded), "count")
	o.set("ddg.deps.emitted", float64(ls.depsEmitted), "count")
	o.set("ddg.shadow.words", float64(ls.shadowWords), "count")
	// The layer-by-layer pipeline against the same work as one call.
	traced := profiled
	if optimize {
		traced += s.total("transform")
	}
	o.set("bench.trace_overhead_frac", traced/s.total("e2e")-1, "ratio")
	o.note("traced_programs", ls.programs)
	o.note("program_shares", ls.shares)
}

// runTraced is the --trace 1 run: the layer decomposition over the
// first programs of the seeded order, plus, on the job workloads, an
// untraced and a traced pass of the request stream.
func runTraced(ctx context.Context, w workloadSpec, seed int64, seconds int, c *checker, meta *runMeta) (*outcome, error) {
	sets, setup, err := buildPrograms(w.programs, 1)
	if err != nil {
		return nil, err
	}
	progs := sets[0]
	o := newOutcome()
	setup.record(o)
	order := newRounds(seed, w.programs).next()
	if w.tracedPrograms > 0 {
		order = order[:w.tracedPrograms]
	}
	ls := &layerSums{}
	for _, name := range order {
		o.attempted++
		if err := decompose(ctx, name, progs[name], w.optimize, c, ls); err != nil {
			o.fail(fmt.Errorf("%s: %w", name, err))
		}
	}
	if len(ls.programs) == 0 {
		return nil, errors.New("no program could be decomposed")
	}
	ls.setLayers(o, w.optimize)
	if w.traceJobPath {
		if err := traceJobs(w.lease, seed, seconds, c, o, meta); err != nil {
			return nil, err
		}
	}
	if w.jobs {
		// A job workload's own end-to-end path is the daemon's.
		o.note("pipeline_trace_overhead_frac", o.metrics["bench.trace_overhead_frac"].Value)
		o.set("bench.trace_overhead_frac", o.notes["jobs_trace_overhead_frac"].(float64), "ratio")
	}
	return o, nil
}

// jobProbe collects the job-path layer samples of a traced pass.
type jobProbe struct {
	submit, get, queueWait, attempt, run, overhead []float64
}

func (p *jobProbe) merge(q *jobProbe) {
	p.submit = append(p.submit, q.submit...)
	p.get = append(p.get, q.get...)
	p.queueWait = append(p.queueWait, q.queueWait...)
	p.attempt = append(p.attempt, q.attempt...)
	p.run = append(p.run, q.run...)
	p.overhead = append(p.overhead, q.overhead...)
}

// traceJobs splits the run in three.  The job request stream runs
// untraced, then traced against a daemon (lease-only when lease is
// set): after each fresh job the client reads the finished job and its
// persisted lifecycle trace, and times the same job spec through
// jobexec.Run outside the daemon.  Unless lease is set, the last third
// runs the stream traced through a lease-only coordinator, because the
// lease protocol (jobapi) does all the dispatch there and none of it
// on the local pool.
func traceJobs(lease bool, seed int64, seconds int, c *checker, o *outcome, meta *runMeta) error {
	third := time.Duration(seconds) * time.Second / 3
	progs := jobPrograms
	d, _, err := setupDaemon(lease, progs, c)
	if err != nil {
		return err
	}
	meta.DataDirFS = fsType(dataRoot)
	plain := closedLoop(d, c, seed, progs, third, nil)
	plain.record(o)
	traced, err := tracedLoop(d, seed, progs, third, c, o)
	if err := errors.Join(err, d.stop()); err != nil {
		return err
	}
	pm, tm := meanMS(plain.fresh), meanMS(traced.fresh)
	o.note("jobs_trace_overhead_frac", tm/pm-1)
	o.note("untraced_fresh_mean_ms", pm)
	o.note("traced_fresh_mean_ms", tm)
	if lease {
		return nil
	}

	ld, _, err := setupDaemon(true, progs, c)
	if err != nil {
		return err
	}
	lo := newOutcome()
	_, err = tracedLoop(ld, seed, progs, third, c, lo)
	if err := errors.Join(err, ld.stop()); err != nil {
		return err
	}
	o.attempted += lo.attempted
	o.failed += lo.failed
	o.failures = append(o.failures, lo.failures...)
	for name, m := range lo.metrics {
		if strings.HasPrefix(name, "jobapi.") {
			o.metrics[name] = m
		}
	}
	for name, v := range lo.notes {
		if strings.HasPrefix(name, "jobapi.") {
			o.notes[name] = v
		}
	}
	return nil
}

// tracedLoop runs the request stream with the job-path probe and
// records the layer metrics of the daemon's dispatch path into o.
func tracedLoop(d *daemon, seed int64, progs []string, dur time.Duration, c *checker, o *outcome) (loopResult, error) {
	before, err := d.snapshot()
	if err != nil {
		return loopResult{}, err
	}
	acq0 := d.acquires.Load()
	probes := make([]jobProbe, clientCount())
	probe := func(i int, cl *client, s sample) error { return probes[i].sample(cl, c, s) }
	res := closedLoop(d, c, seed, progs, dur, probe)
	res.record(o)
	after, err := d.snapshot()
	if err != nil {
		return res, err
	}
	var all jobProbe
	for i := range probes {
		all.merge(&probes[i])
	}
	o.latency("serve.submit", all.submit)
	setMedian(o, "serve.get_ms", all.get)
	setMedian(o, "jobstore.queue_wait_ms", all.queueWait)
	setMedian(o, "jobexec.attempt_ms", all.attempt)
	setMedian(o, "jobexec.run_ms", all.run)
	setMedian(o, "serve.overhead_ms", all.overhead)
	if fsyncs, fsyncNS := histDelta(before, after, "jobstore.wal.fsync_ns"); fsyncs > 0 {
		o.set("jobstore.fsync_ms", float64(fsyncNS)/float64(fsyncs)/1e6, "ms")
	}
	if answered := len(res.fresh) + len(res.hits); answered > 0 {
		records := counterDelta(before, after, "jobstore.wal.records")
		o.set("jobstore.wal_records_per_job", float64(records)/float64(answered), "count")
		o.note("jobstore.wal_records_base", answered)
	}
	if acquires := d.acquires.Load() - acq0; acquires > 0 {
		// Only a lease-only coordinator sees claims; its queue wait is
		// the claim wait, from intake to the lease event.
		setMedian(o, "jobapi.claim_wait_ms", all.queueWait)
		granted := counterDelta(before, after, "jobs.leases.granted")
		o.set("jobapi.claim_hit_frac", float64(granted)/float64(acquires), "ratio")
		o.note("jobapi.acquires", acquires)
		o.latency("jobapi.latency", latencies(res.fresh))
	}
	return res, nil
}

// sample records the job-path layers of one finished fresh job.
func (p *jobProbe) sample(cl *client, c *checker, s sample) error {
	p.submit = append(p.submit, ms(s.submit))
	t0 := time.Now()
	if _, err := cl.getJob(s.id, ""); err != nil {
		return err
	}
	p.get = append(p.get, ms(time.Since(t0)))
	job, err := cl.getJob(s.id, "?trace=1")
	if err != nil {
		return err
	}
	var intake, lease time.Time
	for _, ev := range job.Trace {
		switch ev.Event {
		case jobstore.TraceIntake:
			intake = ev.At
		case jobstore.TraceLease:
			lease = ev.At
		case jobstore.TraceComplete:
			p.attempt = append(p.attempt, float64(ev.WallNS)/1e6)
		}
	}
	if !intake.IsZero() && !lease.IsZero() {
		p.queueWait = append(p.queueWait, ms(lease.Sub(intake)))
	}
	spec := &jobstore.Job{ID: "perfbench-direct", Kind: jobstore.KindWorkload, Workload: s.q.Program}
	eo := jobexec.Options{}
	if s.q.Kind == kindStreamed {
		spec.EpochEvents = epochEvents[s.q.Program]
		eo.EpochEvents = spec.EpochEvents
	}
	t0 = time.Now()
	res, _, err := jobexec.Run(context.Background(), spec, 1, eo)
	run := time.Since(t0)
	if err != nil {
		return fmt.Errorf("direct jobexec.Run of %s: %w", s.q.Program, err)
	}
	if _, err := c.checkReport(s.q.Program, res.Report); err != nil {
		return fmt.Errorf("direct jobexec.Run: %w", err)
	}
	p.run = append(p.run, ms(run))
	p.overhead = append(p.overhead, ms(s.latency)-ms(run))
	return nil
}

func setMedian(o *outcome, name string, xs []float64) {
	o.note(name+"_samples", len(xs))
	if len(xs) > 0 {
		o.set(name, median(xs), "ms")
	}
}

func meanMS(ss []sample) float64 {
	if len(ss) == 0 {
		return math.NaN()
	}
	var t float64
	for _, s := range ss {
		t += ms(s.latency)
	}
	return t / float64(len(ss))
}

func counterDelta(before, after obs.Snapshot, name string) uint64 {
	find := func(s obs.Snapshot) uint64 {
		i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
		if i < len(s.Counters) && s.Counters[i].Name == name {
			return s.Counters[i].Value
		}
		return 0
	}
	return find(after) - find(before)
}

func histDelta(before, after obs.Snapshot, name string) (count, sum uint64) {
	find := func(s obs.Snapshot) (uint64, uint64) {
		for _, h := range s.Histograms {
			if h.Name == name {
				return h.Count, h.Sum
			}
		}
		return 0, 0
	}
	c0, s0 := find(before)
	c1, s1 := find(after)
	return c1 - c0, s1 - s0
}
