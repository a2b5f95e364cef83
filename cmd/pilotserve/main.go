// Command pilotserve is the batch simulation job server: it accepts
// fault-campaign specs over HTTP, runs them on one shared worker pool
// (internal/jobs) with a content-addressed result cache, and streams
// per-job progress. Equal specs produce byte-identical reports, exactly
// like cmd/faultcampaign.
//
// Usage:
//
//	pilotserve [-addr :8091] [-parallel n] [-cache-dir dir]
//	           [-queue-units n] [-per-client n]
//	           [-role standalone|coordinator|worker] [-coordinator url]
//
// Roles (-role, default standalone):
//
//	standalone  — today's behavior: campaigns run on the local pool.
//	coordinator — additionally serves the fleet wire API
//	              (/v1/fleet/register, /lease, /heartbeat, /result,
//	              /cache/{key}) and shards each admitted campaign's
//	              cells across registered workers under expiring
//	              leases; a dead worker's cells re-queue, results merge
//	              in canonical order, and the report stays
//	              byte-identical to a standalone run. Finished cells
//	              persist to -cache-dir, so a restarted coordinator
//	              resumes a campaign from its completed cells.
//	worker      — connects to -coordinator, registers with a host
//	              fingerprint, and executes leased cells on the local
//	              pool through the coordinator's shared result cache,
//	              heartbeating each lease. Serves only /healthz and
//	              /metrics locally.
//
// API:
//
//	POST /v1/jobs        — submit a batch: {"jobs":[spec, ...]} where
//	                       each spec matches internal/campaign.Spec
//	                       (benchmarks, designs, protect, trials, rate,
//	                       seed, scale, sms; zero values select the
//	                       campaign defaults). Returns 202 and
//	                       {"jobs":[{"id":"job-1","units":n}, ...]}.
//	                       Admission is atomic per batch; a batch
//	                       priced above -queue-units or holding more
//	                       jobs than -per-client gets 413, a full queue
//	                       or a client over its in-flight limit 429
//	                       with Retry-After.
//	GET  /v1/jobs/{id}   — stream NDJSON progress lines
//	                       {"id","state","done","total"} until the
//	                       terminal line carries the report ("done") or
//	                       the error ("failed"). Finished jobs are kept
//	                       while their units add up to at most
//	                       -queue-units; older ones answer 404.
//	GET  /healthz        — JSON {"status","uptime_seconds","go_version",
//	                       "version"}: 200 with status "ok" while
//	                       serving, 503 with status "draining" while
//	                       draining.
//	GET  /v1/jobs/{id}/trace
//	                     — the finished job's span tree: admission,
//	                       queue wait, campaign phases, golden runs,
//	                       cells, trials, and pool tasks, as
//	                       pilotrf-spans/v1 NDJSON (?format=perfetto for
//	                       Chrome/Perfetto trace_event JSON). 409 while
//	                       the job is still queued or running, 404 once
//	                       newer finished jobs fill -queue-units.
//	GET  /metrics        — serving + pool + cache metrics in Prometheus
//	                       text exposition (?format=json for a flat JSON
//	                       map); /debug/vars and /debug/pprof ride
//	                       along via the telemetry mux.
//
// Every request carries an X-Request-ID (the caller's, or a generated
// req-N), echoed on the response, stamped on each NDJSON progress line
// of the jobs it admitted, and attached to every structured log record.
// Requests also join W3C trace context: an inbound traceparent header's
// trace id is adopted (the caller's span id is kept as the job root
// span's w3c_parent attribute), otherwise one is minted; either way the
// response carries a traceparent naming a fresh server span, and the
// trace id is stamped on status lines and log records alongside the
// request id. Logs are JSON (log/slog) on stderr; per-endpoint latency
// and queue-wait histograms land in /metrics.
//
// SIGINT/SIGTERM drains gracefully: admission stops (503), running jobs
// finish, then the process exits 0. A second signal forces exit 3.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"pilotrf/internal/fleet"
	"pilotrf/internal/jobs"
	"pilotrf/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("pilotserve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8091", "listen address")
		parallel   = fs.Int("parallel", jobs.DefaultWorkers(), "simulation pool worker count")
		cacheDir   = fs.String("cache-dir", "", "persist golden runs and cells here across jobs and restarts")
		queueUnits = fs.Int("queue-units", defaultQueueUnits, "max admitted simulation jobs (golden runs + trials) in flight; finished jobs are kept up to as many units, then answer 404")
		perClient  = fs.Int("per-client", 8, "max in-flight batch jobs per client")
		role       = fs.String("role", "standalone", "standalone | coordinator | worker")
		coordURL   = fs.String("coordinator", "", "coordinator base URL (required for -role worker)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallel <= 0 || *queueUnits <= 0 || *perClient <= 0 {
		fmt.Fprintln(os.Stderr, "parallel, queue-units, and per-client must be positive")
		return 2
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if *role == "worker" {
		return runWorker(*addr, *coordURL, *parallel, logger)
	}
	s, err := newServer(serverConfig{
		workers:    *parallel,
		queueUnits: *queueUnits,
		perClient:  *perClient,
		cacheDir:   *cacheDir,
		reg:        telemetry.NewRegistry(),
		log:        logger,
		role:       *role,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer s.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv := newHTTPServer(s)
	logger.Info("listening", "addr", ln.Addr().String(), "role", *role,
		"workers", *parallel, "queue_units", *queueUnits, "version", buildVersion())

	// First signal: drain — stop admitting, finish running jobs, exit 0.
	// Second signal: force exit 3 without waiting.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		return 1
	case <-sigc:
	}
	logger.Info("draining", "detail", "waiting for running jobs (signal again to force)")
	s.beginDrain()
	drained := make(chan struct{})
	go func() {
		s.waitIdle()
		close(drained)
	}()
	select {
	case <-drained:
		_ = srv.Close()
		logger.Info("drained cleanly")
		return 0
	case <-sigc:
		logger.Error("forced shutdown: jobs abandoned")
		return 3
	}
}

// runWorker is the -role worker main loop: a fleet worker pulling
// leased cells from the coordinator, plus a local /healthz + /metrics
// endpoint for probes. SIGINT/SIGTERM stops cleanly: the current cell's
// lease expires at the coordinator and re-queues elsewhere.
func runWorker(addr, coordinator string, parallel int, logger *slog.Logger) int {
	if coordinator == "" {
		fmt.Fprintln(os.Stderr, "-role worker requires -coordinator URL")
		return 2
	}
	reg := telemetry.NewRegistry()
	mux := telemetry.NewMux(reg)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{
			"status":      "ok",
			"role":        "worker",
			"coordinator": coordinator,
			"go_version":  runtime.Version(),
			"version":     buildVersion(),
		})
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv := newHTTPServer(mux)
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	logger.Info("worker starting", "addr", ln.Addr().String(),
		"coordinator", coordinator, "parallel", parallel, "version", buildVersion())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := fleet.RunWorker(ctx, fleet.WorkerConfig{
		Coordinator: coordinator,
		Parallel:    parallel,
		Reg:         reg,
		Log:         logger,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	logger.Info("worker stopped")
	return 0
}
