package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pilotrf/internal/campaign"
	"pilotrf/internal/fleet"
	"pilotrf/internal/jobs"
	"pilotrf/internal/telemetry"
	"pilotrf/internal/trace"
)

// version is the build stamp reported by /healthz; stamp releases with
//
//	go build -ldflags "-X main.version=v1.2.3" ./cmd/pilotserve
//
// Unstamped builds fall back to the module version when the toolchain
// recorded one.
var version = "dev"

// buildVersion resolves the /healthz version stamp.
func buildVersion() string {
	if version != "dev" {
		return version
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return version
}

// defaultQueueUnits is the admission capacity when -queue-units is not
// given, in simulation jobs (golden runs plus trials).
const defaultQueueUnits = 4096

// serverConfig sizes the job server. The zero value is not valid; use
// defaults() or the flag wiring in main.
type serverConfig struct {
	// workers is the simulation pool's worker count.
	workers int
	// queueUnits bounds the total admitted work, priced in simulation
	// jobs (Spec.NumJobs): golden runs plus trials. A batch priced above
	// it gets 413; one that would exceed it only with the work in
	// flight gets 429 + Retry-After. It also bounds the finished
	// jobs kept for GET /v1/jobs/{id} and its /trace, by the same price.
	queueUnits int
	// perClient bounds in-flight batch jobs per client (X-Client-ID
	// header, else the remote host).
	perClient int
	// cacheDir, when non-empty, persists golden runs and cells across
	// jobs and restarts (content-addressed; corrupt entries recompute).
	cacheDir string
	// reg receives the serving metrics and the pool's counters, and
	// backs the /metrics and /debug/vars pages.
	reg *telemetry.Registry
	// log receives one structured record per request and per job state
	// change, each carrying the request id. nil discards them (tests).
	log *slog.Logger
	// role selects how admitted campaigns execute: "standalone" (or "")
	// runs them on the local pool exactly as before; "coordinator"
	// additionally mounts the fleet wire API (/v1/fleet/...) and shards
	// campaigns across registered workers, falling back to nothing — a
	// coordinator with no workers simply waits for one.
	role string
}

// serveJob is one admitted campaign and its observable progress.
type serveJob struct {
	id       string
	client   string
	units    int
	spec     campaign.Spec
	reqID    string    // X-Request-ID of the submitting request
	admitted time.Time // when admission accepted the job (queue-wait base)

	// Span tracing: every job records its own trace tree, rooted at the
	// job span and sharing the submitting request's trace id, served by
	// GET /v1/jobs/{id}/trace once the job is terminal.
	traceID string
	rec     *trace.Recorder
	root    *trace.ActiveSpan

	mu      sync.Mutex
	changed chan struct{} // closed and replaced on every update
	state   string        // "queued" | "running" | "done" | "failed"
	done    int
	total   int
	report  *campaign.Report
	errMsg  string
}

// update mutates the job under its lock and wakes every streamer.
func (j *serveJob) update(f func()) {
	j.mu.Lock()
	f()
	close(j.changed)
	j.changed = make(chan struct{})
	j.mu.Unlock()
}

// jobStatus is one NDJSON progress line of GET /v1/jobs/{id}. RequestID
// is the X-Request-ID of the submission that created the job, so a
// client can correlate every progress line with its batch.
type jobStatus struct {
	ID        string           `json:"id"`
	RequestID string           `json:"request_id,omitempty"`
	TraceID   string           `json:"trace_id,omitempty"`
	State     string           `json:"state"`
	Done      int              `json:"done"`
	Total     int              `json:"total"`
	Report    *campaign.Report `json:"report,omitempty"`
	Error     string           `json:"error,omitempty"`
}

// snapshot returns the job's current status line and the channel that
// closes on its next change.
func (j *serveJob) snapshot() (jobStatus, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID: j.id, RequestID: j.reqID, TraceID: j.traceID, State: j.state, Done: j.done, Total: j.total,
		Report: j.report, Error: j.errMsg,
	}, j.changed
}

// server is the batch job service: admission control in front of one
// shared worker pool and result cache.
type server struct {
	cfg   serverConfig
	mux   *http.ServeMux
	pool  *jobs.Pool
	cache *jobs.Cache
	fleet *fleet.Coordinator // non-nil in coordinator role
	log   *slog.Logger
	start time.Time

	// reqSeq mints X-Request-ID values for requests that arrive without
	// one.
	reqSeq atomic.Int64

	mu        sync.Mutex
	seq       int
	jobsByID  map[string]*serveJob
	queued    int // admitted units not yet finished
	perClient map[string]int
	draining  bool
	active    sync.WaitGroup
	// finished holds the terminal jobs still in jobsByID, oldest first,
	// and finishedUnits their summed units, at most cfg.queueUnits.
	finished      []*serveJob
	finishedUnits int

	mAccepted       *telemetry.Counter
	mCompleted      *telemetry.Counter
	mFailed         *telemetry.Counter
	mRejectedQueue  *telemetry.Counter
	mRejectedClient *telemetry.Counter
	gActive         *telemetry.Gauge
	gQueuedUnits    *telemetry.Gauge

	// Per-endpoint request latency and the admission-to-start queue
	// wait, in seconds.
	hSubmit    *telemetry.Histogram
	hJob       *telemetry.Histogram
	hHealth    *telemetry.Histogram
	hQueueWait *telemetry.Histogram
}

// newServer builds the service on cfg.reg's diagnostics mux. The caller
// owns serving (httptest or net/http) and must Close the server.
func newServer(cfg serverConfig) (*server, error) {
	if cfg.reg == nil {
		cfg.reg = telemetry.NewRegistry()
	}
	if cfg.workers <= 0 {
		cfg.workers = jobs.DefaultWorkers()
	}
	if cfg.queueUnits <= 0 {
		cfg.queueUnits = defaultQueueUnits
	}
	if cfg.perClient <= 0 {
		cfg.perClient = 8
	}
	pool, err := jobs.New(jobs.Config{Workers: cfg.workers, Metrics: cfg.reg})
	if err != nil {
		return nil, err
	}
	var cache *jobs.Cache
	if cfg.cacheDir != "" {
		if cache, err = jobs.OpenCache(cfg.cacheDir); err != nil {
			pool.Close()
			return nil, err
		}
		cache.Metrics(cfg.reg)
	}
	logger := cfg.log
	if logger == nil {
		logger = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	s := &server{
		cfg:       cfg,
		pool:      pool,
		cache:     cache,
		log:       logger,
		start:     time.Now(),
		jobsByID:  make(map[string]*serveJob),
		perClient: make(map[string]int),

		mAccepted:       cfg.reg.Counter("serve_jobs_accepted"),
		mCompleted:      cfg.reg.Counter("serve_jobs_completed"),
		mFailed:         cfg.reg.Counter("serve_jobs_failed"),
		mRejectedQueue:  cfg.reg.Counter("serve_rejected_backpressure"),
		mRejectedClient: cfg.reg.Counter("serve_rejected_client_limit"),
		gActive:         cfg.reg.Gauge("serve_active_jobs"),
		gQueuedUnits:    cfg.reg.Gauge("serve_queued_units"),

		hSubmit:    cfg.reg.Histogram("serve_http_submit_seconds", telemetry.DefBuckets),
		hJob:       cfg.reg.Histogram("serve_http_job_seconds", telemetry.DefBuckets),
		hHealth:    cfg.reg.Histogram("serve_http_health_seconds", telemetry.DefBuckets),
		hQueueWait: cfg.reg.Histogram("serve_queue_wait_seconds", telemetry.DefBuckets),
	}
	s.mux = telemetry.NewMux(cfg.reg)
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.hHealth, s.handleHealth))
	s.mux.HandleFunc("/v1/jobs", s.instrument("submit", s.hSubmit, s.handleSubmit))
	s.mux.HandleFunc("/v1/jobs/", s.instrument("job", s.hJob, s.handleJob))
	switch cfg.role {
	case "", "standalone":
	case "coordinator":
		s.fleet = fleet.NewCoordinator(fleet.Config{
			Cache: cache,
			Reg:   cfg.reg,
			Log:   logger,
		})
		s.fleet.Mount(s.mux)
	default:
		pool.Close()
		return nil, fmt.Errorf("pilotserve: unknown role %q (want standalone or coordinator)", cfg.role)
	}
	return s, nil
}

// newHTTPServer wraps the handler in an http.Server hardened against
// slow clients: request headers must arrive within ReadHeaderTimeout
// and whole requests within ReadTimeout (a slowloris trickling bytes is
// cut off instead of pinning a connection forever), and idle
// keep-alives are recycled. WriteTimeout stays zero on purpose — job
// progress streams are long-lived by design.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// retryAfterSeconds derives the 429 Retry-After value for a client key:
// deterministic per-client jitter in [1, 4] seconds, so a crowd of
// simultaneously rejected clients spreads its retries instead of
// stampeding back in lockstep, while any single client (and the tests
// pinning these values) sees a stable number. FNV-1a over the key
// seeds a splitmix64 finisher so near-identical keys decorrelate.
func retryAfterSeconds(client string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(client); i++ {
		h ^= uint64(client[i])
		h *= 1099511628211
	}
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	return 1 + int(h%4)
}

// ctxKeyRequestID carries the request id through handler contexts;
// ctxKeyTrace carries the request's trace identity.
type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyTrace
)

// reqIDFrom extracts the request id placed by instrument.
func reqIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// traceInfo is the per-request trace identity instrument derives from
// the inbound W3C traceparent (or mints): the trace id every span of
// the request's jobs shares, the server-side request span id echoed in
// the response traceparent, the caller's span id ("" when minted
// fresh), and the wall-clock handler start job root spans begin at.
type traceInfo struct {
	trace   string
	span    string
	parent  string
	startNS int64
}

// traceFrom extracts the trace identity placed by instrument.
func traceFrom(ctx context.Context) traceInfo {
	ti, _ := ctx.Value(ctxKeyTrace).(traceInfo)
	return ti
}

// statusWriter records the response code for the request log while
// passing Flush through so NDJSON streaming keeps working.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader captures the status code before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer's Flusher, if any.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request tracing: the caller's
// X-Request-ID is adopted (or one is minted), echoed on the response,
// threaded through the context, and stamped on the structured request
// record; the handler's latency lands in its endpoint histogram. The
// same applies to the W3C traceparent: an inbound header's trace id is
// honored (the caller's span id is remembered as the remote parent), a
// missing or malformed one gets a freshly derived trace id, and the
// response carries a well-formed traceparent naming this server's
// request span, so external tracers can stitch the job's span tree
// into their own.
func (s *server) instrument(endpoint string, lat *telemetry.Histogram, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = fmt.Sprintf("req-%d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", rid)
		tid, parentSpan, ok := trace.ParseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			tid, parentSpan = trace.TraceID("pilotserve", rid), ""
		}
		ti := traceInfo{
			trace:   tid,
			span:    trace.SpanID(tid, "http", endpoint, rid),
			parent:  parentSpan,
			startNS: time.Now().UnixNano(),
		}
		w.Header().Set("traceparent", trace.FormatTraceparent(ti.trace, ti.span))
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		t0 := time.Now()
		ctx := context.WithValue(r.Context(), ctxKeyRequestID, rid)
		ctx = context.WithValue(ctx, ctxKeyTrace, ti)
		h(sw, r.WithContext(ctx))
		dur := time.Since(t0).Seconds()
		lat.Observe(dur)
		s.log.Info("request",
			"request_id", rid, "trace_id", ti.trace, "endpoint", endpoint, "method", r.Method,
			"path", r.URL.Path, "status", sw.code, "duration_seconds", dur)
	}
}

// ServeHTTP implements http.Handler.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the pool and, in coordinator role, the fleet's lease
// janitor. Call after the last job drained.
func (s *server) Close() {
	if s.fleet != nil {
		s.fleet.Close()
	}
	s.pool.Close()
}

// beginDrain stops admitting work: new submissions get 503 and /healthz
// reports unhealthy so load balancers stop routing here. Running jobs
// continue; waitIdle blocks until they finish.
func (s *server) beginDrain() {
	s.mu.Lock()
	s.draining = true
	active := len(s.perClient)
	queued := s.queued
	s.mu.Unlock()
	s.log.Info("drain started", "queued_units", queued, "clients_in_flight", active)
}

// waitIdle blocks until every admitted job has finished.
func (s *server) waitIdle() { s.active.Wait() }

// clientID identifies the submitter for the per-client limit: the
// X-Client-ID header when present, else the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// submitRequest is the POST /v1/jobs body.
type submitRequest struct {
	Jobs []campaign.Spec `json:"jobs"`
}

// submitResponse answers an accepted batch in submission order.
type submitResponse struct {
	Jobs []submittedJob `json:"jobs"`
}

type submittedJob struct {
	ID string `json:"id"`
	// Units is the job's admission price: golden runs + trials.
	Units int `json:"units"`
}

// healthResponse is the GET /healthz body: liveness plus enough build
// and uptime context to identify the process from a probe alone.
type healthResponse struct {
	Status        string  `json:"status"` // "ok" | "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Version       string  `json:"version"`
	// Fleet is the coordinator's live topology snapshot; absent (and
	// absent from the JSON) outside coordinator role, so standalone
	// health bodies are unchanged.
	Fleet *fleet.Health `json:"fleet,omitempty"`
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status, code := "ok", http.StatusOK
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	body := healthResponse{
		Status:        status,
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     runtime.Version(),
		Version:       buildVersion(),
	}
	if s.fleet != nil {
		h := s.fleet.Health()
		body.Fleet = &h
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Jobs) == 0 {
		http.Error(w, `empty batch: body must be {"jobs":[spec, ...]}`, http.StatusBadRequest)
		return
	}
	units := make([]int, len(req.Jobs))
	var total int
	for i, spec := range req.Jobs {
		n, err := spec.NumJobs()
		if err != nil {
			http.Error(w, fmt.Sprintf("job %d: %v", i, err), http.StatusBadRequest)
			return
		}
		units[i] = n
		total += n
	}
	client := clientID(r)
	rid := reqIDFrom(r.Context())
	ti := traceFrom(r.Context())
	// A batch above the capacity or the per-client limit never fits, so
	// it gets a final status and no retry hint.
	if total > s.cfg.queueUnits {
		s.mRejectedQueue.Inc()
		s.log.Warn("batch rejected", "request_id", rid, "client", client,
			"reason", "above capacity", "batch_units", total, "capacity", s.cfg.queueUnits)
		http.Error(w, fmt.Sprintf("batch needs %d units, above capacity %d", total, s.cfg.queueUnits), http.StatusRequestEntityTooLarge)
		return
	}
	if len(req.Jobs) > s.cfg.perClient {
		s.mRejectedClient.Inc()
		s.log.Warn("batch rejected", "request_id", rid, "client", client,
			"reason", "above client limit", "batch_jobs", len(req.Jobs), "limit", s.cfg.perClient)
		http.Error(w, fmt.Sprintf("batch has %d jobs, above the per-client limit %d", len(req.Jobs), s.cfg.perClient), http.StatusRequestEntityTooLarge)
		return
	}

	// Admission is atomic over the whole batch: either every job is
	// accepted or none, so callers never chase partial batches.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.log.Warn("batch rejected", "request_id", rid, "client", client, "reason", "draining")
		http.Error(w, "draining: not accepting new jobs", http.StatusServiceUnavailable)
		return
	}
	if s.perClient[client]+len(req.Jobs) > s.cfg.perClient {
		s.mu.Unlock()
		s.mRejectedClient.Inc()
		s.log.Warn("batch rejected", "request_id", rid, "client", client,
			"reason", "client limit", "limit", s.cfg.perClient)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(client)))
		http.Error(w, fmt.Sprintf("client %s has too many jobs in flight (limit %d)", client, s.cfg.perClient), http.StatusTooManyRequests)
		return
	}
	if s.queued+total > s.cfg.queueUnits {
		inFlight := s.queued
		s.mu.Unlock()
		s.mRejectedQueue.Inc()
		s.log.Warn("batch rejected", "request_id", rid, "client", client,
			"reason", "queue full", "in_flight_units", inFlight, "batch_units", total,
			"capacity", s.cfg.queueUnits)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds(client)))
		http.Error(w, fmt.Sprintf("queue full: %d units in flight, batch needs %d, capacity %d", inFlight, total, s.cfg.queueUnits), http.StatusTooManyRequests)
		return
	}
	resp := submitResponse{Jobs: make([]submittedJob, len(req.Jobs))}
	started := make([]*serveJob, len(req.Jobs))
	now := time.Now()
	for i, spec := range req.Jobs {
		s.seq++
		j := &serveJob{
			id:       fmt.Sprintf("job-%d", s.seq),
			client:   client,
			units:    units[i],
			spec:     spec,
			reqID:    rid,
			admitted: now,
			changed:  make(chan struct{}),
			state:    "queued",
			total:    units[i],
			traceID:  ti.trace,
		}
		// Each job records its own tree under the request's trace id.
		// The root stays open until the job is terminal; an inbound
		// traceparent's span is kept as an attribute (a link, not a
		// parent) so the served tree always has exactly one root.
		j.rec = trace.NewRecorder(true)
		j.root = j.rec.Root("job", ti.trace, j.id)
		j.root.SetWallStart(ti.startNS)
		j.root.SetAttr("id", j.id)
		j.root.SetAttr("request_id", rid)
		j.root.SetAttr("client", client)
		j.root.SetAttr("units", fmt.Sprintf("%d", j.units))
		if ti.parent != "" {
			j.root.SetAttr("w3c_parent", ti.parent)
		}
		admit := j.root.Context().Start("admit")
		admit.SetWallStart(ti.startNS)
		admit.SetAttr("units", fmt.Sprintf("%d", j.units))
		admit.End()
		s.jobsByID[j.id] = j
		started[i] = j
		resp.Jobs[i] = submittedJob{ID: j.id, Units: j.units}
	}
	s.queued += total
	s.perClient[client] += len(req.Jobs)
	s.active.Add(len(req.Jobs))
	s.mu.Unlock()

	s.gQueuedUnits.Add(int64(total))
	s.gActive.Add(int64(len(req.Jobs)))
	s.mAccepted.Add(uint64(len(req.Jobs)))
	ids := make([]string, len(started))
	for i, j := range started {
		ids[i] = j.id
	}
	s.log.Info("batch accepted", "request_id", rid, "client", client,
		"jobs", len(started), "units", total, "ids", ids)
	for _, j := range started {
		go s.runJob(j)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(resp)
}

// runJob executes one admitted campaign on the shared pool and
// publishes its progress.
func (s *server) runJob(j *serveJob) {
	defer func() {
		s.mu.Lock()
		s.queued -= j.units
		s.perClient[j.client]--
		if s.perClient[j.client] == 0 {
			delete(s.perClient, j.client)
		}
		s.retain(j)
		s.mu.Unlock()
		s.gQueuedUnits.Add(-int64(j.units))
		s.gActive.Add(-1)
		s.active.Done()
	}()

	wait := time.Since(j.admitted)
	s.hQueueWait.Observe(wait.Seconds())
	queue := j.root.Context().Start("queue")
	queue.SetWallStart(j.admitted.UnixNano())
	queue.End()
	j.update(func() { j.state = "running" })
	s.log.Info("job running", "request_id", j.reqID, "trace_id", j.traceID, "job", j.id,
		"units", j.units, "queue_wait_seconds", wait.Seconds())
	t0 := time.Now()
	ctx := trace.NewContext(context.Background(), j.root.Context())
	progress := func(done, total int) {
		j.update(func() { j.done, j.total = done, total })
	}
	var rep campaign.Report
	var err error
	if s.fleet != nil {
		// Coordinator role: shard the campaign's cells across registered
		// fleet workers. The merge is canonical, so the report is
		// byte-identical to the standalone path below.
		rep, err = s.fleet.RunCampaign(ctx, j.spec, fleet.RunOptions{
			Progress: progress,
			Trace:    j.rec,
		})
	} else {
		rep, err = campaign.Run(ctx, j.spec, campaign.Options{
			Pool:     s.pool,
			Cache:    s.cache,
			Progress: progress,
		})
	}
	if err != nil {
		s.mFailed.Inc()
		s.log.Error("job failed", "request_id", j.reqID, "trace_id", j.traceID, "job", j.id,
			"duration_seconds", time.Since(t0).Seconds(), "error", err.Error())
		j.root.SetAttr("state", "failed")
		j.root.End() // before the terminal update: a client seeing it can fetch the tree
		j.update(func() { j.state = "failed"; j.errMsg = err.Error() })
		return
	}
	s.mCompleted.Inc()
	s.log.Info("job done", "request_id", j.reqID, "trace_id", j.traceID, "job", j.id,
		"duration_seconds", time.Since(t0).Seconds())
	j.root.SetAttr("state", "done")
	j.root.End()
	j.update(func() { j.state = "done"; j.report = &rep })
}

// retain keeps the terminal job j served and forgets the oldest
// finished jobs while their units exceed the admission capacity, so a
// long-running server holds a bounded set of reports and span trees.
// Admission prices no job above the capacity, so j itself stays;
// queued and running jobs are never in the FIFO. Call with s.mu held.
func (s *server) retain(j *serveJob) {
	s.finished = append(s.finished, j)
	s.finishedUnits += j.units
	for s.finishedUnits > s.cfg.queueUnits {
		old := s.finished[0]
		s.finished[0] = nil
		s.finished = s.finished[1:]
		s.finishedUnits -= old.units
		delete(s.jobsByID, old.id)
	}
}

// handleJob streams a job's progress as NDJSON: one status line per
// state change (coalesced), ending with the terminal line that carries
// the report or the error.
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if tid, ok := strings.CutSuffix(id, "/trace"); ok {
		s.handleJobTrace(w, r, tid)
		return
	}
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "job id required", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	j, ok := s.jobsByID[id]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown job "+id, http.StatusNotFound)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		st, changed := j.snapshot()
		if err := enc.Encode(st); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.State == "done" || st.State == "failed" {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's recorded
// span tree as pilotrf-spans/v1 NDJSON (default) or a Perfetto
// trace_event document (?format=perfetto). The tree is only complete
// once the job is terminal — the root span closes right before the
// terminal status publishes — so mid-run requests get 409 and clients
// stream /v1/jobs/{id} to completion first. The tree is validated
// before serving; a failed job whose campaign was torn down mid-batch
// can legitimately have an inconsistent recording, reported as 500.
func (s *server) handleJobTrace(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "job id required", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	j, ok := s.jobsByID[id]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown job "+id, http.StatusNotFound)
		return
	}
	st, _ := j.snapshot()
	if st.State != "done" && st.State != "failed" {
		http.Error(w, "job "+id+" is "+st.State+"; the trace is served once it is done or failed", http.StatusConflict)
		return
	}
	spans := j.rec.Spans()
	if _, err := trace.BuildTree(spans); err != nil {
		s.log.Error("trace invalid", "request_id", reqIDFrom(r.Context()), "job", id, "error", err.Error())
		http.Error(w, "recorded span tree is inconsistent: "+err.Error(), http.StatusInternalServerError)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := trace.WriteSpans(w, spans); err != nil {
			s.log.Error("trace write failed", "job", id, "error", err.Error())
		}
	case "perfetto":
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WritePerfetto(w, spans); err != nil {
			s.log.Error("trace write failed", "job", id, "error", err.Error())
		}
	default:
		http.Error(w, "unknown format (want ndjson or perfetto)", http.StatusBadRequest)
	}
}
