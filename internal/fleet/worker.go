package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"time"

	"pilotrf/internal/campaign"
	"pilotrf/internal/jobs"
	"pilotrf/internal/telemetry"
	"pilotrf/internal/trace"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Parallel is the local pool's worker count (the capacity announced
	// at registration). Zero selects jobs.DefaultWorkers().
	Parallel int
	// Reg receives the worker-side metrics; nil creates a private
	// registry.
	Reg *telemetry.Registry
	// Log receives structured records; nil discards.
	Log *slog.Logger
	// runCell, when set, replaces the campaign execution — chaos tests
	// inject hangs and failures here without simulating anything.
	runCell func(ctx context.Context, l Lease) (campaign.Cell, []trace.Span, error)
}

// Worker is one fleet worker: it registers with the coordinator, pulls
// leased cells, executes them through internal/campaign against the
// shared remote cache, and submits results, heartbeating throughout.
type Worker struct {
	cfg   WorkerConfig
	link  Link
	id    string
	ttl   time.Duration
	poll  time.Duration
	pool  *jobs.Pool
	cache *jobs.Cache

	cLeases   *telemetry.Counter
	cCellsOK  *telemetry.Counter
	cCellsErr *telemetry.Counter
	cLost     *telemetry.Counter
}

// RunWorker registers with the coordinator and processes leases until
// ctx is cancelled (returns nil) or the coordinator stays unreachable
// past the retry budget (returns the transport error).
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Coordinator == "" {
		return fmt.Errorf("fleet: worker without coordinator URL")
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = jobs.DefaultWorkers()
	}
	if cfg.Reg == nil {
		cfg.Reg = telemetry.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	w := &Worker{
		cfg:       cfg,
		link:      NewLink(cfg.Coordinator),
		cLeases:   cfg.Reg.Counter("fleet_worker_leases"),
		cCellsOK:  cfg.Reg.Counter("fleet_worker_cells_ok"),
		cCellsErr: cfg.Reg.Counter("fleet_worker_cells_err"),
		cLost:     cfg.Reg.Counter("fleet_worker_leases_lost"),
	}
	w.link.retries = cfg.Reg.Counter("fleet_worker_retries")
	if cfg.runCell == nil {
		pool, err := jobs.New(jobs.Config{Workers: cfg.Parallel, Metrics: cfg.Reg})
		if err != nil {
			return err
		}
		defer pool.Close()
		w.pool = pool
		cache, err := newRemoteCache(w.link, cfg.Reg, cfg.Log)
		if err != nil {
			return err
		}
		w.cache = cache
	}
	if err := w.register(ctx); err != nil {
		return err
	}
	return w.loop(ctx)
}

// fingerprint captures this process's execution environment.
func fingerprint() Fingerprint {
	host, _ := os.Hostname()
	return Fingerprint{
		Host:      host,
		PID:       os.Getpid(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// post sends one JSON wire message through the link.
func (w *Worker) post(ctx context.Context, path string, msg interface{}) ([]byte, int, error) {
	body, err := json.Marshal(msg)
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: encoding %s: %w", path, err)
	}
	return w.link.Do(ctx, http.MethodPost, path, body)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// register announces the worker and adopts the coordinator's timing.
func (w *Worker) register(ctx context.Context) error {
	buf, _, err := w.post(ctx, "/v1/fleet/register", RegisterRequest{
		Schema:      WireSchema,
		Fingerprint: fingerprint(),
		Capacity:    w.cfg.Parallel,
	})
	if err != nil {
		return fmt.Errorf("fleet: registering: %w", err)
	}
	var resp RegisterResponse
	if err := json.Unmarshal(buf, &resp); err != nil || resp.Schema != WireSchema || resp.WorkerID == "" {
		return fmt.Errorf("fleet: malformed register response %q", firstLine(buf))
	}
	w.id = resp.WorkerID
	w.ttl = time.Duration(resp.TTLMS) * time.Millisecond
	w.poll = time.Duration(resp.PollMS) * time.Millisecond
	if w.ttl <= 0 {
		w.ttl = 10 * time.Second
	}
	if w.poll <= 0 {
		w.poll = 500 * time.Millisecond
	}
	w.cfg.Log.Info("registered", "worker", w.id, "ttl", w.ttl.String(), "poll", w.poll.String())
	return nil
}

// loop pulls and executes leases until ctx ends.
func (w *Worker) loop(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		buf, code, err := w.post(ctx, "/v1/fleet/lease", LeaseRequest{Schema: WireSchema, WorkerID: w.id})
		switch {
		case ctx.Err() != nil:
			return nil
		case code == http.StatusNotFound:
			// Coordinator restarted and forgot us: re-register.
			w.cfg.Log.Warn("coordinator forgot worker, re-registering", "worker", w.id)
			if err := w.register(ctx); err != nil {
				return err
			}
			continue
		case err != nil:
			return err
		case code == http.StatusNoContent:
			if serr := sleepCtx(ctx, w.poll); serr != nil {
				return nil
			}
			continue
		}
		lease, err := ReadLease(bytes.NewReader(buf))
		if err != nil {
			w.cfg.Log.Error("dropping malformed lease", "error", err.Error())
			continue
		}
		w.cLeases.Inc()
		w.execute(ctx, lease)
	}
}

// execute runs one leased cell under a heartbeat and submits the
// terminal result.
func (w *Worker) execute(ctx context.Context, l Lease) {
	w.cfg.Log.Info("executing cell", "lease", l.ID, "campaign", l.Campaign, "cell", l.Cell,
		"design", l.Design, "workload", l.Workload, "protect", l.Protect, "attempt", l.Attempt)

	// The heartbeat goroutine renews the lease at TTL/3; a 410 means the
	// lease was re-queued under us (we were presumed dead) — stop
	// computing, the result would be rejected anyway.
	cellCtx, cancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		tick := time.NewTicker(w.ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-cellCtx.Done():
				return
			case <-tick.C:
				_, code, err := w.post(cellCtx, "/v1/fleet/heartbeat", Heartbeat{
					Schema: WireSchema, WorkerID: w.id, LeaseID: l.ID,
				})
				if code == http.StatusGone || code == http.StatusNotFound {
					w.cfg.Log.Warn("lease lost", "lease", l.ID, "code", code)
					w.cLost.Inc()
					cancel()
					return
				}
				if err != nil && cellCtx.Err() == nil {
					w.cfg.Log.Warn("heartbeat failed", "lease", l.ID, "error", err.Error())
				}
			}
		}
	}()

	cell, spans, err := w.runCell(cellCtx, l)
	leaseLost := cellCtx.Err() != nil // read before cancel below taints it
	cancel()
	<-hbDone

	if ctx.Err() != nil {
		return // worker shutting down; the lease will expire and re-queue
	}
	if leaseLost {
		// Lease re-queued under us mid-run: nothing to submit, the cell
		// is already someone else's.
		return
	}
	res := Result{
		Schema:   WireSchema,
		WorkerID: w.id,
		LeaseID:  l.ID,
		Campaign: l.Campaign,
		Cell:     l.Cell,
	}
	if err != nil {
		w.cCellsErr.Inc()
		res.Error = err.Error()
		w.cfg.Log.Warn("cell failed", "lease", l.ID, "cell", l.Cell, "error", err.Error())
	} else {
		w.cCellsOK.Inc()
		res.CellResult = &cell
		res.Spans = spans
		w.cfg.Log.Info("cell done", "lease", l.ID, "cell", l.Cell)
	}
	_, code, serr := w.post(ctx, "/v1/fleet/result", res)
	if code == http.StatusGone {
		w.cLost.Inc()
		w.cfg.Log.Warn("result rejected as stale", "lease", l.ID)
		return
	}
	if serr != nil && ctx.Err() == nil {
		w.cfg.Log.Error("result submit failed", "lease", l.ID, "error", serr.Error())
	}
}

// runCell executes the lease's single-cell campaign spec through
// internal/campaign, recording a deterministic span subtree rooted
// under the lease's traceparent.
func (w *Worker) runCell(ctx context.Context, l Lease) (campaign.Cell, []trace.Span, error) {
	if w.cfg.runCell != nil {
		return w.cfg.runCell(ctx, l)
	}
	rec := trace.NewRecorder(false)
	if tid, sid, ok := trace.ParseTraceparent(l.Traceparent); ok {
		ctx = trace.NewContext(ctx, rec.Adopt(tid, sid))
	}
	report, err := campaign.Run(ctx, l.Spec, campaign.Options{
		Pool:  w.pool,
		Cache: w.cache,
		Trace: rec,
	})
	if err != nil {
		return campaign.Cell{}, nil, err
	}
	if len(report.Cells) != 1 {
		return campaign.Cell{}, nil, fmt.Errorf("fleet: cell spec produced %d cells, want 1", len(report.Cells))
	}
	return report.Cells[0], rec.Spans(), nil
}
