package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"polyprof/internal/jobapi"
	"polyprof/internal/jobstore"
	"polyprof/internal/obs"
	"polyprof/internal/obs/flight"
	"polyprof/internal/serve"
)

const (
	// pollInterval is how often a client asks for a fresh job's state
	// until it is terminal, as a CI script's wait loop would.
	pollInterval = 5 * time.Millisecond
	// jobTimeout fails a job that is not terminal this long after its
	// submission.
	jobTimeout = 60 * time.Second
	// jobSetupReps is how many times a job run restarts its primed
	// daemon; setup_s is the median restart time.
	jobSetupReps = 9
	// dataRoot holds the daemons' job stores, inside the checkout's
	// build directory.
	dataRoot = ".bench_build/perfbench-data"
)

// daemon is an in-process serve daemon on a loopback listener, with
// its remote-protocol workers when it is a lease-only coordinator.
type daemon struct {
	dir      string
	reg      *obs.Registry
	srv      *serve.Server
	hs       *http.Server
	base     string
	stopWork context.CancelFunc
	wg       sync.WaitGroup
	// acquires counts POST /v1/leases claim requests, so the claim hit
	// fraction has its base.
	acquires atomic.Int64
}

// startDaemon opens the job store in dir (a new one when dir is
// empty), starts the daemon and its workers, and waits until it is
// ready.
func startDaemon(dir string, lease bool, slots int) (*daemon, error) {
	if dir == "" {
		if err := os.MkdirAll(dataRoot, 0o755); err != nil {
			return nil, err
		}
		var err error
		if dir, err = os.MkdirTemp(dataRoot, "store-"); err != nil {
			return nil, err
		}
	}
	var err error
	d := &daemon{dir: dir, reg: obs.NewRegistry()}
	opts := serve.Options{DataDir: dir, Registry: d.reg, Workers: slots}
	if lease {
		opts.Workers = -1
	}
	d.srv, err = serve.New(opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	h := d.srv.Handler()
	d.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/leases" {
			d.acquires.Add(1)
		}
		h.ServeHTTP(w, r)
	})}
	d.base = "http://" + ln.Addr().String()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.hs.Serve(ln)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	d.stopWork = cancel
	if lease {
		for i := 0; i < slots; i++ {
			wk := jobapi.NewWorker(jobapi.WorkerOptions{
				Coordinator: d.base, Name: fmt.Sprintf("perfbench-%d", i), Slots: 1,
			})
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				wk.Run(ctx)
			}()
		}
	}
	if err := d.waitReady(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("daemon did not become ready")
}

// stop shuts the daemon down and removes its store.
func (d *daemon) stop() error {
	return errors.Join(d.shutdown(), os.RemoveAll(d.dir))
}

// shutdown stops the workers, the listener and the store, and waits
// for every goroutine the daemon started; the store stays on disk.
func (d *daemon) shutdown() error {
	d.stopWork()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	d.wg.Wait()
	err = errors.Join(err, d.srv.Close())
	flight.Default.Disable()
	return err
}

// snapshot reads the daemon's /metrics JSON.
func (d *daemon) snapshot() (obs.Snapshot, error) {
	var s obs.Snapshot
	resp, err := http.Get(d.base + "/metrics?format=json")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// setupDaemon starts a daemon on a new store and primes its result
// cache with one cacheable job per program, so duplicate submissions
// of the request stream are answered from the cache.  It then restarts
// the daemon jobSetupReps times on the primed store, each restart
// replaying the store and starting the workers, and returns the last
// daemon with the restarts' cost.
func setupDaemon(lease bool, progs []string, c *checker) (*daemon, *setupCost, error) {
	d, err := startDaemon("", lease, clientCount())
	if err != nil {
		return nil, nil, err
	}
	if err := prime(d, progs, c); err != nil {
		d.stop()
		return nil, nil, err
	}
	cost := &setupCost{}
	for i := 0; i < jobSetupReps; i++ {
		dir := d.dir
		if err := d.shutdown(); err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		if err := cost.time(func() (err error) {
			d, err = startDaemon(dir, lease, clientCount())
			return err
		}); err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
	}
	return d, cost, nil
}

func prime(d *daemon, progs []string, c *checker) error {
	cl := newClient(d.base, c)
	var ids []string
	for _, p := range progs {
		var sum jobstore.JobSummary
		status, err := cl.postJSON("/v1/jobs?workload="+p, &sum)
		if err != nil {
			return err
		}
		if status != http.StatusAccepted {
			return fmt.Errorf("priming %s: status %d", p, status)
		}
		ids = append(ids, sum.ID)
	}
	for i, id := range ids {
		job, err := cl.waitTerminal(id, time.Now())
		if err != nil {
			return err
		}
		if _, err := cl.checkJob(progs[i], job); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	return nil
}

// client is one closed-loop submitter with its own single connection.
type client struct {
	hc   *http.Client
	base string
	c    *checker
}

func newClient(base string, c *checker) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr}, base: base, c: c}
}

func (cl *client) close() { cl.hc.CloseIdleConnections() }

func (cl *client) postJSON(path string, v any) (int, error) {
	resp, err := cl.hc.Post(cl.base+path, "application/octet-stream", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, body)
	}
	return resp.StatusCode, json.Unmarshal(body, v)
}

func (cl *client) getJob(id, query string) (*jobstore.Job, error) {
	resp, err := cl.hc.Get(cl.base + "/v1/jobs/" + id + query)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET job %s: status %d", id, resp.StatusCode)
	}
	var j jobstore.Job
	return &j, json.NewDecoder(resp.Body).Decode(&j)
}

// waitTerminal polls a job until it is terminal.
func (cl *client) waitTerminal(id string, submitted time.Time) (*jobstore.Job, error) {
	for {
		job, err := cl.getJob(id, "")
		if err != nil {
			return nil, err
		}
		if job.State.Terminal() {
			return job, nil
		}
		if time.Since(submitted) > jobTimeout {
			return nil, fmt.Errorf("job %s (%s) timed out in state %s", id, job.Name(), job.State)
		}
		time.Sleep(pollInterval)
	}
}

// checkJob verifies a terminal job succeeded with the reference report.
func (cl *client) checkJob(prog string, job *jobstore.Job) (uint64, error) {
	if job.State != jobstore.StateSucceeded || job.Result == nil {
		msg := ""
		if job.Error != nil {
			msg = job.Error.Message
		}
		return 0, fmt.Errorf("job %s (%s) ended %s: %s", job.ID, prog, job.State, msg)
	}
	return cl.c.checkReport(prog, job.Result.Report)
}

// sample is one answered submission.
type sample struct {
	q       request
	id      string
	latency time.Duration // POST start until the terminal report arrived
	submit  time.Duration // the POST round trip alone
	ops     uint64
}

// do sends one request of the stream and waits for its report.
func (cl *client) do(q request) (sample, error) {
	s := sample{q: q}
	t0 := time.Now()
	if q.Kind == kindHit {
		var hit struct {
			Cached bool            `json:"cached"`
			Report json.RawMessage `json:"report"`
		}
		status, err := cl.postJSON(q.path(), &hit)
		s.submit = time.Since(t0)
		s.latency = s.submit
		if err != nil {
			return s, err
		}
		if status != http.StatusOK || !hit.Cached {
			return s, fmt.Errorf("duplicate %s was not answered from the cache (status %d)", q.Program, status)
		}
		s.ops, err = cl.c.checkReport(q.Program, hit.Report)
		return s, err
	}
	var sum jobstore.JobSummary
	status, err := cl.postJSON(q.path(), &sum)
	s.submit = time.Since(t0)
	if err != nil {
		return s, err
	}
	if status != http.StatusAccepted {
		return s, fmt.Errorf("fresh %s job answered with status %d", q.Program, status)
	}
	s.id = sum.ID
	job, err := cl.waitTerminal(sum.ID, t0)
	s.latency = time.Since(t0)
	if err != nil {
		return s, err
	}
	s.ops, err = cl.checkJob(q.Program, job)
	return s, err
}

// loopResult is what a closed loop answered.
type loopResult struct {
	fresh, hits []sample
	attempted   int
	failures    []error
	wall        time.Duration
}

// closedLoop runs clientCount() clients, each sending its seeded
// request stream one request at a time, until dur has passed; probe,
// when non-nil, runs on client i's goroutine after each fresh job.
func closedLoop(d *daemon, c *checker, seed int64, progs []string, dur time.Duration, probe func(int, *client, sample) error) loopResult {
	n := clientCount()
	parts := make([]loopResult, n)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := newClient(d.base, c)
			defer cl.close()
			stream := newRequestStream(seed, i, progs)
			r := &parts[i]
			for time.Since(start) < dur {
				q := stream.next()
				r.attempted++
				s, err := cl.do(q)
				if err == nil && probe != nil && q.Kind != kindHit {
					err = probe(i, cl, s)
				}
				switch {
				case err != nil:
					r.failures = append(r.failures, err)
				case q.Kind == kindHit:
					r.hits = append(r.hits, s)
				default:
					r.fresh = append(r.fresh, s)
				}
			}
		}(i)
	}
	wg.Wait()
	out := loopResult{wall: time.Since(start)}
	for _, p := range parts {
		out.fresh = append(out.fresh, p.fresh...)
		out.hits = append(out.hits, p.hits...)
		out.attempted += p.attempted
		out.failures = append(out.failures, p.failures...)
	}
	return out
}

func (r loopResult) record(o *outcome) {
	o.attempted += r.attempted
	for _, err := range r.failures {
		o.fail(err)
	}
}

func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency)
	}
	return out
}

// runJobs is the untraced run of jobs-local and jobs-lease.
func runJobs(w workloadSpec, seed int64, seconds int, c *checker, meta *runMeta) (*outcome, error) {
	d, setup, err := setupDaemon(w.lease, w.programs, c)
	if err != nil {
		return nil, err
	}
	meta.DataDirFS = fsType(filepath.Dir(d.dir))
	// The request stream leaves no gap to calibrate in, so the job runs
	// calibrate just before and after it.
	cal := newCalibrator()
	cal.calibrateFor(time.Duration(seconds) * time.Second / 2)
	c0 := processCPU()
	res := closedLoop(d, c, seed, w.programs, time.Duration(seconds)*time.Second, nil)
	cpu := processCPU() - c0
	cal.calibrateFor(time.Duration(seconds) * time.Second / 2)
	if err := d.stop(); err != nil {
		return nil, err
	}
	o := newOutcome()
	setup.record(o)
	res.record(o)
	var ops uint64
	for _, s := range res.fresh {
		ops += s.ops
	}
	o.set("ops_per_s", float64(ops)/res.wall.Seconds(), "ops/s")
	o.set("jobs_per_s", float64(len(res.fresh)+len(res.hits))/res.wall.Seconds(), "jobs/s")
	setCPURates(o, ops, len(res.fresh)+len(res.hits), cpu, cal.scale())
	o.latency("latency", latencies(res.fresh))
	o.latency("hit", latencies(res.hits))
	o.set("peak_rss_mb", peakRSSMiB(), "MiB")
	o.note("fresh_jobs", len(res.fresh))
	o.note("cache_hits", len(res.hits))
	if total := len(res.fresh) + len(res.hits); total > 0 {
		o.note("cache_hit_share", float64(len(res.hits))/float64(total))
	}
	return o, nil
}
