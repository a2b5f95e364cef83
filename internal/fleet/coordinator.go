package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pilotrf/internal/campaign"
	"pilotrf/internal/jobs"
	"pilotrf/internal/telemetry"
	"pilotrf/internal/trace"
)

// Config sizes a Coordinator. Zero fields select defaults.
type Config struct {
	// Cache persists finished cells and golden runs, serves the remote
	// cache endpoints, and is the crash-resume source. nil disables
	// persistence (and therefore resume), which only tests want.
	Cache *jobs.Cache
	// Reg receives the fleet metrics; nil creates a private registry.
	Reg *telemetry.Registry
	// Log receives structured records; nil discards.
	Log *slog.Logger
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// before its cell is re-queued. Zero selects 10s.
	LeaseTTL time.Duration
	// PollInterval is the work-poll cadence suggested to workers at
	// registration. Zero selects 500ms.
	PollInterval time.Duration
	// ExcludeAfter is K: after K failures (errors or lease expiries) of
	// one worker on one cell, that worker is excluded from that cell.
	// Zero selects 2.
	ExcludeAfter int
	// PoisonAfter is the number of distinct workers that must report an
	// error for one cell before the cell is declared poison and the
	// campaign fails. Zero selects 2. A cell that has failed with an
	// error is also poison once no live worker can take it, so a
	// single-worker fleet fails after ExcludeAfter tries by that worker.
	PoisonAfter int
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.ExcludeAfter <= 0 {
		c.ExcludeAfter = 2
	}
	if c.PoisonAfter <= 0 {
		c.PoisonAfter = 2
	}
	if c.Reg == nil {
		c.Reg = telemetry.NewRegistry()
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	return c
}

// workerState is one registered worker.
type workerState struct {
	id       string
	fp       Fingerprint
	lastSeen time.Time
	lost     bool
}

// cellState tracks one campaign cell through the lease state machine.
type cellState struct {
	state    int // cellPending | cellLeased | cellDone
	result   campaign.Cell
	leaseID  string
	worker   string
	deadline time.Time
	attempt  int
	// failures tallies errors + expiries per worker (exclusion);
	// errWorkers records distinct workers' error messages (poison).
	failures   map[string]int
	excluded   map[string]bool
	errWorkers map[string]string
	firstErr   string
}

const (
	cellPending = iota
	cellLeased
	cellDone
)

// run is one campaign being sharded across the fleet.
type run struct {
	id       string
	pl       *campaign.Plan
	spec     campaign.Spec
	cells    []cellState
	left     int // cells not yet done
	failed   bool
	failCell int
	failMsg  string
	done     chan struct{}

	progress       func(done, total int)
	doneUnits      int
	totalUnits     int
	goldenCredited map[string]bool

	rec    *trace.Recorder
	campSC trace.SpanContext
	camp   *trace.ActiveSpan
}

// RunOptions configures one RunCampaign.
type RunOptions struct {
	// Progress, when set, is called with cumulative done/total units
	// (priced like campaign.Options.Progress: golden runs + trials).
	Progress func(done, total int)
	// Trace, when non-nil, records the fleet span tree: a
	// fleet.campaign span (child of any span carried by ctx), one
	// fleet.cell span per cell, and under each the executing worker's
	// imported subtree. Wall sections and cache annotations vary with
	// scheduling; the report is byte-identical regardless.
	Trace *trace.Recorder
}

// Coordinator shards campaigns into leased cells over registered
// workers. Create with NewCoordinator, mount its HTTP API with Mount,
// and stop the lease janitor with Close.
type Coordinator struct {
	cfg Config

	mu        sync.Mutex
	workers   map[string]*workerState
	runs      []*run // admission order; leases scan in order
	seqWorker int
	seqRun    int
	seqLease  int
	closed    chan struct{}

	gWorkersLive   *telemetry.Gauge
	cWorkersLost   *telemetry.Counter
	gLeasesActive  *telemetry.Gauge
	cLeasesExpired *telemetry.Counter
	cRequeued      *telemetry.Counter
	cResumed       *telemetry.Counter
	cCompleted     *telemetry.Counter
	cPoisoned      *telemetry.Counter
	cRejects       *telemetry.Counter
	gCampaigns     *telemetry.Gauge
	cCacheGets     *telemetry.Counter
	cCacheHits     *telemetry.Counter
	cCachePuts     *telemetry.Counter
	cCacheBad      *telemetry.Counter
}

// NewCoordinator builds the coordinator and starts its lease janitor.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		closed:  make(chan struct{}),

		gWorkersLive:   cfg.Reg.Gauge("fleet_workers_live"),
		cWorkersLost:   cfg.Reg.Counter("fleet_workers_lost"),
		gLeasesActive:  cfg.Reg.Gauge("fleet_leases_active"),
		cLeasesExpired: cfg.Reg.Counter("fleet_leases_expired"),
		cRequeued:      cfg.Reg.Counter("fleet_cells_requeued"),
		cResumed:       cfg.Reg.Counter("fleet_cells_resumed"),
		cCompleted:     cfg.Reg.Counter("fleet_cells_completed"),
		cPoisoned:      cfg.Reg.Counter("fleet_cells_poisoned"),
		cRejects:       cfg.Reg.Counter("fleet_result_rejects"),
		gCampaigns:     cfg.Reg.Gauge("fleet_campaigns_active"),
		cCacheGets:     cfg.Reg.Counter("fleet_cache_gets"),
		cCacheHits:     cfg.Reg.Counter("fleet_cache_hits"),
		cCachePuts:     cfg.Reg.Counter("fleet_cache_puts"),
		cCacheBad:      cfg.Reg.Counter("fleet_cache_rejected"),
	}
	go c.janitor()
	return c
}

// Close stops the lease janitor. Campaigns still running keep their
// state but expired leases are no longer re-queued.
func (c *Coordinator) Close() {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
}

// janitor periodically expires overdue leases and worker liveness.
func (c *Coordinator) janitor() {
	tick := time.NewTicker(c.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-tick.C:
			c.expire()
		}
	}
}

// expire re-queues cells whose lease deadline passed and transitions
// silent workers to lost.
func (c *Coordinator) expire() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.runs {
		for i := range r.cells {
			cell := &r.cells[i]
			if cell.state != cellLeased || now.Before(cell.deadline) {
				continue
			}
			c.cfg.Log.Warn("lease expired", "campaign", r.id, "cell", i,
				"worker", cell.worker, "lease", cell.leaseID, "attempt", cell.attempt)
			c.cLeasesExpired.Inc()
			c.failLocked(r, i, cell.worker, "") // expiry: counts for exclusion, not poison
		}
	}
	for _, w := range c.workers {
		if !w.lost && now.Sub(w.lastSeen) > 2*c.cfg.LeaseTTL {
			w.lost = true
			c.gWorkersLive.Add(-1)
			c.cWorkersLost.Inc()
			c.cfg.Log.Warn("worker lost", "worker", w.id, "host", w.fp.Host,
				"last_seen", w.lastSeen.Format(time.RFC3339Nano))
		}
	}
}

// failLocked records one failed attempt (errMsg == "" for a lease
// expiry) and either re-queues the cell, or — when the cell has an error
// and PoisonAfter distinct workers have reported errors or no live
// worker can still take it — fails the whole campaign. Callers hold c.mu.
func (c *Coordinator) failLocked(r *run, i int, worker, errMsg string) {
	cell := &r.cells[i]
	cell.state = cellPending
	cell.leaseID = ""
	cell.worker = ""
	c.gLeasesActive.Add(-1)
	c.cRequeued.Inc()
	if cell.failures == nil {
		cell.failures = make(map[string]int)
		cell.excluded = make(map[string]bool)
		cell.errWorkers = make(map[string]string)
	}
	cell.failures[worker]++
	if cell.failures[worker] >= c.cfg.ExcludeAfter && !cell.excluded[worker] {
		cell.excluded[worker] = true
		c.cfg.Log.Warn("worker excluded from cell", "campaign", r.id, "cell", i,
			"worker", worker, "failures", cell.failures[worker])
	}
	if errMsg != "" {
		if cell.firstErr == "" {
			cell.firstErr = errMsg
		}
		cell.errWorkers[worker] = errMsg
	}
	if cell.firstErr != "" && !r.failed && (len(cell.errWorkers) >= c.cfg.PoisonAfter || !c.takerLocked(cell)) {
		ref := r.pl.Cell(i)
		c.cPoisoned.Inc()
		r.failed = true
		r.failCell = i
		r.failMsg = fmt.Sprintf("cell %d (%s/%s/%s) is poison: %d workers failed it, first error: %s",
			i, ref.Design, ref.Protect, ref.Workload, len(cell.errWorkers), cell.firstErr)
		c.cfg.Log.Error("campaign failed", "campaign", r.id, "cell", i, "error", r.failMsg)
		close(r.done)
	}
}

// takerLocked reports whether a live worker is not excluded from cell.
// Callers hold c.mu.
func (c *Coordinator) takerLocked(cell *cellState) bool {
	for _, w := range c.workers {
		if !w.lost && !cell.excluded[w.id] {
			return true
		}
	}
	return false
}

// RunCampaign shards one campaign across the fleet and blocks until it
// completes, fails (poison cell), or ctx is cancelled. Finished cells
// already present in the coordinator's cache are replayed without
// dispatch (crash-resume); everything else is leased to workers and the
// results merge in canonical order, so the report is byte-identical to
// a standalone single-process run of the same spec.
func (c *Coordinator) RunCampaign(ctx context.Context, spec campaign.Spec, opt RunOptions) (campaign.Report, error) {
	pl, err := campaign.NewPlan(spec)
	if err != nil {
		return campaign.Report{}, err
	}
	r := &run{
		pl:             pl,
		spec:           pl.Spec(),
		cells:          make([]cellState, pl.NumCells()),
		left:           pl.NumCells(),
		done:           make(chan struct{}),
		progress:       opt.Progress,
		totalUnits:     pl.NumJobs(),
		goldenCredited: make(map[string]bool),
	}

	// Span tree: a fleet.campaign span under the caller's span (the job
	// server's per-job root) or rooted fresh on the provided recorder.
	if sc := trace.FromContext(ctx); sc.Active() {
		r.rec = opt.Trace
		r.camp = sc.Start("fleet.campaign")
	} else if opt.Trace != nil {
		r.rec = opt.Trace
		r.camp = opt.Trace.Root("fleet.campaign", pl.TraceID(), "fleet")
	}
	r.camp.SetAttr("cells", strconv.Itoa(pl.NumCells()))
	r.campSC = r.camp.Context()

	// Crash-resume: replay finished cells straight from the cache.
	resumed := 0
	for i := 0; i < pl.NumCells(); i++ {
		var cell campaign.Cell
		if c.cfg.Cache.Get(pl.CellKey(i), &cell) && pl.ValidCell(i, cell) {
			r.cells[i] = cellState{state: cellDone, result: cell}
			r.left--
			resumed++
			sp := r.campSC.Start("fleet.cell", strconv.Itoa(i))
			c.annotateCell(sp, pl.Cell(i), "resume")
			sp.End()
			c.creditLocked(r, i)
		}
	}
	c.cResumed.Add(uint64(resumed))

	c.mu.Lock()
	c.seqRun++
	r.id = fmt.Sprintf("c-%d", c.seqRun)
	allDone := r.left == 0
	if !allDone {
		c.runs = append(c.runs, r)
	}
	c.mu.Unlock()
	c.gCampaigns.Add(1)
	defer c.gCampaigns.Add(-1)
	c.cfg.Log.Info("campaign admitted", "campaign", r.id,
		"cells", pl.NumCells(), "resumed", resumed, "units", r.totalUnits)

	if !allDone {
		defer c.remove(r)
		select {
		case <-r.done:
		case <-ctx.Done():
			r.camp.End()
			return campaign.Report{}, ctx.Err()
		}
	}

	c.mu.Lock()
	failed, failMsg := r.failed, r.failMsg
	cells := make([]campaign.Cell, len(r.cells))
	for i := range r.cells {
		cells[i] = r.cells[i].result
	}
	c.mu.Unlock()
	r.camp.End()
	if failed {
		return campaign.Report{}, fmt.Errorf("fleet: campaign %s: %s", r.id, failMsg)
	}
	return pl.Assemble(cells), nil
}

// remove drops a finished run from the lease scan.
func (c *Coordinator) remove(r *run) {
	c.mu.Lock()
	for i, x := range c.runs {
		if x == r {
			c.runs = append(c.runs[:i], c.runs[i+1:]...)
			break
		}
	}
	// Any still-active leases of this run die with it; result
	// submissions for them will be rejected as stale.
	for i := range r.cells {
		if r.cells[i].state == cellLeased {
			c.gLeasesActive.Add(-1)
		}
	}
	c.mu.Unlock()
}

// creditLocked advances the progress accounting for a finished cell:
// its trial units, plus the (design, workload) golden unit the first
// time a cell of that pair completes. Called with c.mu held except
// during RunCampaign's pre-admission resume loop, where the run is not
// yet visible to any other goroutine.
func (c *Coordinator) creditLocked(r *run, i int) {
	ref := r.pl.Cell(i)
	units := r.spec.Trials
	pair := ref.Design + "\x00" + ref.Workload
	if !r.goldenCredited[pair] {
		r.goldenCredited[pair] = true
		units++
	}
	r.doneUnits += units
	if r.progress != nil {
		r.progress(r.doneUnits, r.totalUnits)
	}
}

// annotateCell stamps the deterministic cell identity on a fleet.cell
// span; how the cell was satisfied (computed / resume) varies with
// history, so it rides in the wall section.
func (c *Coordinator) annotateCell(sp *trace.ActiveSpan, ref campaign.CellRef, how string) {
	sp.SetAttr("design", ref.Design)
	sp.SetAttr("workload", ref.Workload)
	sp.SetAttr("protect", ref.Protect)
	sp.SetWallAttr("satisfied", how)
}

// Health is the coordinator's state snapshot for /healthz.
type Health struct {
	WorkersLive   int    `json:"workers_live"`
	WorkersLost   int    `json:"workers_lost"`
	LeasesActive  int    `json:"leases_active"`
	Campaigns     int    `json:"campaigns_active"`
	CellsPending  int    `json:"cells_pending"`
	CellsLeased   int    `json:"cells_leased"`
	CellsRequeued uint64 `json:"cells_requeued"`
	CellsResumed  uint64 `json:"cells_resumed"`
}

// Health returns the live fleet snapshot.
func (c *Coordinator) Health() Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := Health{
		CellsRequeued: c.cRequeued.Value(),
		CellsResumed:  c.cResumed.Value(),
	}
	for _, w := range c.workers {
		if w.lost {
			h.WorkersLost++
		} else {
			h.WorkersLive++
		}
	}
	for _, r := range c.runs {
		h.Campaigns++
		for i := range r.cells {
			switch r.cells[i].state {
			case cellPending:
				h.CellsPending++
			case cellLeased:
				h.CellsLeased++
				h.LeasesActive++
			}
		}
	}
	return h
}

// ---------------------------------------------------------------- HTTP

// Mount registers the fleet wire API on mux:
//
//	POST /v1/fleet/register   — worker announce; assigns id + timing
//	POST /v1/fleet/lease      — pull one cell (204 when none pending)
//	POST /v1/fleet/heartbeat  — renew a lease
//	POST /v1/fleet/result     — submit a lease's terminal result
//	GET/PUT /v1/fleet/cache/{key}
//	                          — shared content-addressed envelope store
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/fleet/register", c.handleRegister)
	mux.HandleFunc("/v1/fleet/lease", c.handleLease)
	mux.HandleFunc("/v1/fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/fleet/result", c.handleResult)
	mux.HandleFunc("/v1/fleet/cache/", c.handleCache)
}

// decodeWire decodes a JSON body and checks the schema fence.
func decodeWire(w http.ResponseWriter, r *http.Request, schema *string, v interface{}) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxWireBytes)).Decode(v); err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if *schema != WireSchema {
		http.Error(w, fmt.Sprintf("schema %q, want %q", *schema, WireSchema), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeWire(w, r, &req.Schema, &req) {
		return
	}
	c.mu.Lock()
	c.seqWorker++
	ws := &workerState{
		id:       fmt.Sprintf("w-%d", c.seqWorker),
		fp:       req.Fingerprint,
		lastSeen: time.Now(),
	}
	c.workers[ws.id] = ws
	c.mu.Unlock()
	c.gWorkersLive.Add(1)
	c.cfg.Log.Info("worker registered", "worker", ws.id, "host", req.Fingerprint.Host,
		"pid", req.Fingerprint.PID, "capacity", req.Capacity,
		"goos", req.Fingerprint.GOOS, "goarch", req.Fingerprint.GOARCH)
	writeJSON(w, http.StatusOK, RegisterResponse{
		Schema:   WireSchema,
		WorkerID: ws.id,
		TTLMS:    c.cfg.LeaseTTL.Milliseconds(),
		PollMS:   c.cfg.PollInterval.Milliseconds(),
	})
}

// touchLocked refreshes a worker's liveness; reports false when the
// worker is unknown (coordinator restarted, or never registered).
func (c *Coordinator) touchLocked(id string) (*workerState, bool) {
	ws, ok := c.workers[id]
	if !ok {
		return nil, false
	}
	ws.lastSeen = time.Now()
	if ws.lost {
		ws.lost = false
		c.gWorkersLive.Add(1)
	}
	return ws, true
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeWire(w, r, &req.Schema, &req) {
		return
	}
	c.mu.Lock()
	if _, ok := c.touchLocked(req.WorkerID); !ok {
		c.mu.Unlock()
		http.Error(w, "unknown worker "+req.WorkerID, http.StatusNotFound)
		return
	}
	var lease *Lease
	for _, run := range c.runs {
		if run.failed {
			continue
		}
		for i := range run.cells {
			cell := &run.cells[i]
			if cell.state != cellPending || cell.excluded[req.WorkerID] {
				continue
			}
			c.seqLease++
			cell.state = cellLeased
			cell.leaseID = fmt.Sprintf("l-%d", c.seqLease)
			cell.worker = req.WorkerID
			cell.deadline = time.Now().Add(c.cfg.LeaseTTL)
			cell.attempt++
			ref := run.pl.Cell(i)
			lease = &Lease{
				Schema:   WireSchema,
				ID:       cell.leaseID,
				Campaign: run.id,
				Cell:     i,
				Design:   ref.Design,
				Workload: ref.Workload,
				Protect:  ref.Protect,
				Spec:     run.pl.CellSpec(i),
				TTLMS:    c.cfg.LeaseTTL.Milliseconds(),
				Attempt:  cell.attempt,
			}
			if run.campSC.Active() {
				// The cell span is recorded at completion, but its id is
				// deterministic, so the worker can parent under it now.
				lease.Traceparent = trace.FormatTraceparent(
					run.campSC.TraceID(),
					trace.SpanID(run.campSC.SpanID(), "fleet.cell", strconv.Itoa(i)))
			}
			break
		}
		if lease != nil {
			break
		}
	}
	c.mu.Unlock()
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	c.gLeasesActive.Add(1)
	c.cfg.Log.Info("lease granted", "lease", lease.ID, "campaign", lease.Campaign,
		"cell", lease.Cell, "worker", req.WorkerID, "attempt", lease.Attempt,
		"design", lease.Design, "workload", lease.Workload, "protect", lease.Protect)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = WriteLease(w, *lease)
}

// findLease locates the run and cell currently holding leaseID. Callers
// hold c.mu.
func (c *Coordinator) findLeaseLocked(leaseID string) (*run, int) {
	for _, r := range c.runs {
		for i := range r.cells {
			if r.cells[i].state == cellLeased && r.cells[i].leaseID == leaseID {
				return r, i
			}
		}
	}
	return nil, -1
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req Heartbeat
	if !decodeWire(w, r, &req.Schema, &req) {
		return
	}
	c.mu.Lock()
	if _, ok := c.touchLocked(req.WorkerID); !ok {
		c.mu.Unlock()
		http.Error(w, "unknown worker "+req.WorkerID, http.StatusNotFound)
		return
	}
	run, i := c.findLeaseLocked(req.LeaseID)
	if run == nil || run.cells[i].worker != req.WorkerID {
		c.mu.Unlock()
		http.Error(w, "stale lease "+req.LeaseID, http.StatusGone)
		return
	}
	run.cells[i].deadline = time.Now().Add(c.cfg.LeaseTTL)
	c.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req Result
	if !decodeWire(w, r, &req.Schema, &req) {
		return
	}
	c.mu.Lock()
	c.touchLocked(req.WorkerID)
	run, i := c.findLeaseLocked(req.LeaseID)
	if run == nil || run.cells[i].worker != req.WorkerID || i != req.Cell || run.id != req.Campaign {
		c.mu.Unlock()
		c.cRejects.Inc()
		c.cfg.Log.Warn("result rejected", "lease", req.LeaseID, "campaign", req.Campaign,
			"cell", req.Cell, "worker", req.WorkerID, "reason", "stale or unknown lease")
		http.Error(w, "stale lease "+req.LeaseID, http.StatusGone)
		return
	}
	cell := &run.cells[i]
	if req.Error != "" {
		c.cfg.Log.Warn("cell failed", "campaign", run.id, "cell", i,
			"worker", req.WorkerID, "error", req.Error)
		c.failLocked(run, i, req.WorkerID, req.Error)
		c.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if req.CellResult == nil || !run.pl.ValidCell(i, *req.CellResult) {
		// A structurally wrong result is a worker bug: treat it as a
		// failure so the cell is retried elsewhere, and remember it
		// against the worker.
		c.cfg.Log.Warn("cell result invalid", "campaign", run.id, "cell", i, "worker", req.WorkerID)
		c.failLocked(run, i, req.WorkerID, "")
		c.mu.Unlock()
		c.cRejects.Inc()
		http.Error(w, "cell result does not match the lease", http.StatusBadRequest)
		return
	}
	cell.state = cellDone
	cell.result = *req.CellResult
	cell.leaseID = ""
	run.left--
	left := run.left
	// The winning attempt's span subtree joins the coordinator's tree;
	// losing (stale) attempts were rejected above, so the tree stays
	// single-rooted and deterministic in shape.
	sp := run.campSC.Start("fleet.cell", strconv.Itoa(i))
	c.annotateCell(sp, run.pl.Cell(i), "computed")
	sp.SetWallAttr("worker", req.WorkerID)
	sp.SetWallAttr("attempt", strconv.Itoa(cell.attempt))
	sp.End()
	run.rec.Import(req.Spans)
	c.creditLocked(run, i)
	if left == 0 && !run.failed {
		close(run.done)
	}
	c.mu.Unlock()

	c.gLeasesActive.Add(-1)
	c.cCompleted.Inc()
	// Persist the moment the result arrives: this is the crash-resume
	// ledger. The worker also wrote it through the remote cache, but a
	// cache-less worker (or a dropped Put) must not cost resumability.
	if err := c.cfg.Cache.Put(run.pl.CellKey(i), *req.CellResult); err != nil {
		c.cfg.Log.Error("cell persist failed", "campaign", run.id, "cell", i, "error", err.Error())
	}
	c.cfg.Log.Info("cell done", "campaign", run.id, "cell", i,
		"worker", req.WorkerID, "left", left)
	w.WriteHeader(http.StatusNoContent)
}

// handleCache serves the shared content-addressed envelope store:
// GET returns the raw pilotrf-jobcache/v1 envelope (404 on miss or
// corruption — integrity is re-verified on every read), PUT stores one
// after the same verification (400 on a bad envelope).
func (c *Coordinator) handleCache(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/fleet/cache/")
	if !jobs.ValidHexKey(key) {
		http.Error(w, "malformed cache key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		c.cCacheGets.Inc()
		buf, ok := c.cfg.Cache.LoadRaw(key)
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		c.cCacheHits.Inc()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf)
	case http.MethodPut:
		buf, err := io.ReadAll(io.LimitReader(r.Body, maxWireBytes+1))
		if err != nil {
			http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(buf) > maxWireBytes {
			http.Error(w, "envelope too large", http.StatusRequestEntityTooLarge)
			return
		}
		if c.cfg.Cache == nil {
			// No store configured: accept and drop, the worker treats the
			// remote cache as best-effort anyway.
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if err := c.cfg.Cache.StoreRaw(key, buf); err != nil {
			c.cCacheBad.Inc()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.cCachePuts.Inc()
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "GET or PUT", http.StatusMethodNotAllowed)
	}
}
