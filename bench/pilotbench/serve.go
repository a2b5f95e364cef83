package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pilotrf/internal/campaign"
	"pilotrf/internal/jobs"
	"pilotrf/internal/trace"
	"pilotrf/internal/workloads"
)

// serveParams sizes the serve-closed workload: closed-loop clients, each
// submitting one job and streaming it to its report before the next,
// drawing specs Zipf-distributed from a fixed pool so popular specs hit
// the server's cache and rare ones compute fresh cells.
type serveParams struct {
	poolSize int     // distinct specs the clients draw from
	zipfS    float64 // Zipf exponent of the draw
	clients  int
	parallel int // pilotserve -parallel
	verify   int // distinct specs re-run in process and compared byte for byte
	trials   int
	scale    float64
	job      time.Duration // nominal duration of one job (see env.startPhase)
}

func defaultServeParams() serveParams {
	return serveParams{poolSize: 64, zipfS: 1.1, clients: 2, parallel: 2, verify: 8, trials: 2, scale: 0.05,
		job: 1700 * time.Microsecond}
}

// specPoolSeed fixes the pool of specs, so a run of any seed computes
// the same fresh cells and serves the same popular specs; the run's
// seed draws the request stream.
const specPoolSeed = 1

// specPool draws the pool of small campaign specs: one to three
// workloads, one or two designs and one or two protection schemes, each
// list in canonical order so specs share cells through the cache.
func specPool(p serveParams) []campaign.Spec {
	r := rand.New(rand.NewPCG(specPoolSeed, 0x2545F4914F6CDD1D))
	pick := func(from []string, k int) []string {
		idx := r.Perm(len(from))[:k]
		sort.Ints(idx)
		out := make([]string, k)
		for i, j := range idx {
			out[i] = from[j]
		}
		return out
	}
	designs := []string{"mrf-stv", "mrf-ntv", "part", "part-adaptive"}
	protect := []string{"none", "parity", "secded", "paper"}
	specs := make([]campaign.Spec, p.poolSize)
	for i := range specs {
		specs[i] = campaign.Spec{
			Benchmarks: pick(workloads.Names(), 1+r.IntN(3)),
			Designs:    pick(designs, 1+r.IntN(2)),
			Protect:    pick(protect, 1+r.IntN(2)),
			Trials:     p.trials,
			Scale:      p.scale,
		}
	}
	return specs
}

// requests draws a run's n jobs from the seed: spec indices, Zipf
// distributed over the pool in pool order. The pool and its popularity
// are fixed, so seeds differ in the order and exact mix of requests,
// not in which specs dominate.
func requests(seed uint64, p serveParams, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewPCG(seed, 0x6A09E667F3BCC909)), p.zipfS, 1, uint64(p.poolSize-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// pilotserve is one running server process.
type pilotserve struct {
	cmd     *exec.Cmd
	started time.Time // just before the process was started
	base    string    // http://host:port
	log     *addrWatcher
}

// addrWatcher captures a server's log and picks the listen address out
// of its "listening" record.
type addrWatcher struct {
	mu   sync.Mutex
	buf  bytes.Buffer // the whole log, for diagnostics
	line []byte
	addr chan string
}

// Write implements io.Writer.
func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for _, c := range p {
		if c != '\n' {
			w.line = append(w.line, c)
			continue
		}
		var rec struct{ Msg, Addr string }
		if json.Unmarshal(w.line, &rec) == nil && rec.Msg == "listening" && rec.Addr != "" {
			select {
			case w.addr <- rec.Addr:
			default:
			}
		}
		w.line = w.line[:0]
	}
	return len(p), nil
}

// String returns the log captured so far.
func (w *addrWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startServer launches pilotserve on a free loopback port with a fresh
// cache under dir and waits until /healthz answers 200.
func startServer(ctx context.Context, bin, dir string, parallel int, hc *http.Client) (*pilotserve, error) {
	if bin == "" {
		return nil, errors.New("serve-closed needs -pilotserve (bench/run.sh builds it)")
	}
	w := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-parallel", strconv.Itoa(parallel),
		"-cache-dir", filepath.Join(dir, "cache"))
	cmd.Stderr = w
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	started := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &pilotserve{cmd: cmd, started: started, log: w}
	select {
	case addr := <-w.addr:
		s.base = "http://" + addr
	case <-time.After(10 * time.Second):
		s.kill()
		return nil, fmt.Errorf("pilotserve did not report its address:\n%s", w)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("pilotserve /healthz never answered 200:\n%s", w)
		}
	}
}

// stop drains the server with SIGTERM, waits for it to exit, and
// returns its peak resident set in MiB.
func (s *pilotserve) stop() (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	if err := s.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("pilotserve: %w\n%s", err, s.log)
	}
	ru, _ := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return 0, errors.New("pilotserve: no resource usage")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// kill stops a server that failed to start.
func (s *pilotserve) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// serverVars is the part of GET /debug/vars the benchmark reads: the
// server's Go runtime counters and its telemetry registry.
type serverVars struct {
	Memstats runtime.MemStats   `json:"memstats"`
	Pilotrf  map[string]float64 `json:"pilotrf"`
}

func (s *pilotserve) vars(hc *http.Client) (*serverVars, error) {
	resp, err := hc.Get(s.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v serverVars
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return &v, nil
}

// jobRun is one client job: its timings and the report it returned.
type jobRun struct {
	spec              int
	start             time.Time
	lat               time.Duration
	submitMS, firstMS float64
	rejected          bool
	report            json.RawMessage
	spans             []trace.Span
	err               error
}

// jobStatus is one NDJSON line of GET /v1/jobs/{id}.
type jobStatus struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Report json.RawMessage `json:"report"`
}

// doJob submits one spec and streams the job to its terminal line; in a
// traced run it also fetches the job's span tree.
func doJob(ctx context.Context, e *env, hc *http.Client, base, client string, idx int, spec campaign.Spec, seq int) (*jobRun, error) {
	j := &jobRun{spec: idx}
	body, err := json.Marshal(map[string][]campaign.Spec{"jobs": {spec}})
	if err != nil {
		return j, err
	}
	sp := e.root.Context().Start("client.job", client, strconv.Itoa(seq))
	defer sp.End()
	sp.SetAttr("spec", strconv.Itoa(idx))
	t0 := time.Now()
	j.start = t0
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return j, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", client)
	if sc := sp.Context(); sc.Active() {
		req.Header.Set("traceparent", trace.FormatTraceparent(sc.TraceID(), sc.SpanID()))
	}
	ssp := sp.Context().Start("http.submit")
	resp, err := hc.Do(req)
	if err != nil {
		ssp.End()
		return j, err
	}
	var sub struct{ Jobs []struct{ ID string } }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	ssp.End()
	j.submitMS = time.Since(t0).Seconds() * 1e3
	if resp.StatusCode == http.StatusTooManyRequests {
		j.rejected = true
		return j, fmt.Errorf("submit: %s", resp.Status)
	}
	if resp.StatusCode != http.StatusAccepted || err != nil || len(sub.Jobs) != 1 {
		return j, fmt.Errorf("submit: %s (%v)", resp.Status, err)
	}
	id := sub.Jobs[0].ID

	gsp := sp.Context().Start("http.stream")
	t1 := time.Now()
	resp, err = hc.Get(base + "/v1/jobs/" + id)
	if err != nil {
		gsp.End()
		return j, err
	}
	dec := json.NewDecoder(resp.Body)
	var st jobStatus
	for first := true; ; first = false {
		st = jobStatus{}
		if err = dec.Decode(&st); err != nil {
			break
		}
		if first {
			j.firstMS = time.Since(t1).Seconds() * 1e3
		}
		if st.State == "done" || st.State == "failed" {
			break
		}
	}
	resp.Body.Close()
	gsp.End()
	j.lat = time.Since(t0)
	switch {
	case err != nil:
		return j, fmt.Errorf("%s: stream: %w", id, err)
	case st.State != "done":
		return j, fmt.Errorf("%s: %s: %s", id, st.State, st.Error)
	}
	j.report = st.Report

	if sp.Context().Active() {
		tsp := sp.Context().Start("http.trace")
		defer tsp.End()
		resp, err := hc.Get(base + "/v1/jobs/" + id + "/trace")
		if err != nil {
			return j, err
		}
		defer resp.Body.Close()
		if j.spans, err = trace.ReadSpans(resp.Body); err != nil {
			return j, fmt.Errorf("%s: trace: %w", id, err)
		}
	}
	return j, nil
}

// runServe measures the serve-closed workload: a pilotserve process
// answering the budget's worth of jobs from closed-loop clients.
func runServe(ctx context.Context, e *env, p serveParams) (*outcome, error) {
	oc := &outcome{metrics: map[string]float64{}}
	m := oc.metrics
	hc := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: p.clients + 1, MaxIdleConnsPerHost: p.clients + 1},
		Timeout:   2 * time.Minute,
	}
	defer hc.CloseIdleConnections()
	specs := specPool(p)

	var srv *pilotserve
	rep := 0
	setup, err := setupMedian(e.cal, func() (func(), error) {
		dir := filepath.Join(e.tmp, fmt.Sprintf("server-%d", rep))
		rep++
		var err error
		srv, err = startServer(ctx, e.pilotserve, dir, p.parallel, hc)
		return func() { _, _ = srv.stop() }, err
	})
	if err != nil {
		return nil, err
	}
	m["setup_s"] = setup
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()

	before, err := srv.vars(hc)
	if err != nil {
		return nil, err
	}
	pace := e.startPhase(p.job, minLatencySamples)
	reqs := requests(e.seed, p, pace.planned)
	runs := make([]*jobRun, len(reqs))
	start, active := loadServer(ctx, e, p, pace, func(client string, i int) {
		j, err := doJob(ctx, e, hc, srv.base, client, reqs[i], specs[reqs[i]], i)
		if err != nil {
			j.lat = 0
			j.report = nil
			j.err = err
		}
		runs[i] = j
	})
	m["host.phase_s"] = time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := srv.vars(hc)
	if err != nil {
		return nil, err
	}
	stopped = true
	rss, err := srv.stop()
	if err != nil {
		return nil, err
	}

	var usPerOp []float64
	var done, rejected float64
	var submitMS, firstMS, totalMS float64
	var injected, trials float64
	var served []trace.Span
	for i, j := range runs {
		if j == nil {
			continue // not started: the pacer ended the phase early
		}
		oc.attempted++
		if j.err != nil {
			oc.fail("job %d (spec %d): %v", i, j.spec, j.err)
		}
		if j.rejected {
			rejected++
		}
		if j.report == nil {
			continue
		}
		done++
		usPerOp = append(usPerOp, 1e6*e.cal.seconds(j.start, j.lat))
		submitMS += j.submitMS
		firstMS += j.firstMS
		totalMS += 1e3 * j.lat.Seconds()
		var rep campaign.Report
		if err := json.Unmarshal(j.report, &rep); err == nil {
			for _, c := range rep.Cells {
				injected += float64(c.Injected)
				trials += float64(rep.Trials)
			}
		}
		served = append(served, j.spans...)
	}
	m["peak_rss_mib"] = rss
	m["ops_per_s"] = ratio(done, active)
	memBefore, memAfter := remoteMem(before.Memstats, srv.started), remoteMem(after.Memstats, srv.started)
	memMetrics(m, &memBefore, &memAfter, done)
	gcMetrics(m, &memBefore, &memAfter, active, e.cal.runScale(start))
	if err := latencyMetrics(m, "us_per_op", usPerOp); err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after.Pilotrf[name] - before.Pilotrf[name] }
	m["jobs.cache_hit_ratio"] = ratio(delta("cache_hits"), delta("cache_hits")+delta("cache_misses"))
	m["jobs.steals_per_ktask"] = ratio(1e3*delta("jobs_steals"), delta("jobs_completed"))
	m["fault.injected_per_trial"] = ratio(injected, trials)
	m["serve.rejected_frac"] = ratio(rejected, float64(oc.attempted))
	m["serve.submit_frac"] = ratio(submitMS, totalMS)
	m["serve.first_line_frac"] = ratio(firstMS, totalMS)
	if e.traced() {
		m["traced.ops_per_s"] = m["ops_per_s"]
		var queueMS float64
		for i := range served {
			if served[i].Name == "queue" {
				queueMS += spanMS(&served[i])
			}
		}
		m["serve.queue_wait_frac"] = ratio(queueMS, totalMS)
		if err := spanLayers(m, served, e.cal); err != nil {
			return nil, err
		}
		e.spans.Import(served)
	}
	if err := verifyServe(ctx, oc, p, specs, runs); err != nil {
		return nil, err
	}
	return oc, nil
}

// serveCalEvery is how often the serve-closed clients pause for a
// calibration: one chase costs as much as a few cached jobs, so unlike
// the other workloads it cannot run before every job.
const serveCalEvery = 200 * time.Millisecond

// loadServer runs jobs from p.clients closed-loop clients, each taking
// the next job index as soon as its previous job ends, for as long as
// the pacer allows. Every serveCalEvery the clients pause between jobs
// while the host is calibrated with the server idle. It returns when all
// jobs ended, with the load's start and its active (unpaused) time in
// nominal seconds.
func loadServer(ctx context.Context, e *env, p serveParams, pace *pacer, job func(client string, i int)) (time.Time, float64) {
	var gate sync.RWMutex
	var next atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	calibrated := make(chan struct{})
	start := time.Now()
	active := []time.Time{start} // alternating starts and ends of unpaused stretches
	go func() {
		defer close(calibrated)
		tick := time.NewTicker(serveCalEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				gate.Lock()
				active = append(active, time.Now())
				e.cal.measure()
				active = append(active, time.Now())
				gate.Unlock()
			}
		}
	}()
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func(client string) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if !pace.more(i) {
					return
				}
				gate.RLock()
				job(client, i)
				gate.RUnlock()
			}
		}(fmt.Sprintf("pilotbench-%d", c))
	}
	wg.Wait()
	end := time.Now()
	close(stop)
	<-calibrated
	active = append(active, end)
	secs := 0.0
	for i := 0; i+1 < len(active); i += 2 {
		secs += e.cal.seconds(active[i], active[i+1].Sub(active[i]))
	}
	return start, secs
}

// verifyServe checks, untimed, that every job of one spec returned the
// same report bytes, and that for the first few distinct specs (by pool
// index) those bytes equal an in-process campaign.Run of the spec.
func verifyServe(ctx context.Context, oc *outcome, p serveParams, specs []campaign.Spec, runs []*jobRun) error {
	bySpec := map[int][]byte{}
	for _, j := range runs {
		if j == nil || j.report == nil {
			continue
		}
		if prev, ok := bySpec[j.spec]; !ok {
			bySpec[j.spec] = j.report
		} else if !bytes.Equal(prev, j.report) {
			oc.fail("spec %d: two jobs returned different reports (%x, %x)",
				j.spec, sha256.Sum256(prev), sha256.Sum256(j.report))
		}
	}
	idx := make([]int, 0, len(bySpec))
	for i := range bySpec {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	if len(idx) > p.verify {
		idx = idx[:p.verify]
	}
	pool, err := jobs.New(jobs.Config{Workers: p.parallel})
	if err != nil {
		return err
	}
	defer pool.Close()
	for _, i := range idx {
		rep, err := campaign.Run(ctx, specs[i], campaign.Options{Pool: pool})
		if err != nil {
			return fmt.Errorf("in-process campaign for spec %d: %w", i, err)
		}
		want, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, bySpec[i]) {
			oc.fail("spec %d: served report differs from the in-process campaign.Run", i)
		}
	}
	return nil
}
