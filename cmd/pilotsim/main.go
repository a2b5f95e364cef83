// Command pilotsim runs one benchmark (or all of them) on a chosen
// register file design and prints the statistics the paper's evaluation
// is built from: cycles, register access distribution, FRF share, pilot
// fraction, and profiling quality.
//
// Usage:
//
//	pilotsim [-bench name] [-design <scheme>] (any registered design
//	         scheme: mrf-stv, mrf-ntv, part, part-adaptive, greener,
//	         rfc, rfc-hints — see internal/design)
//	         [-profile static|compiler|pilot|hybrid] [-sched gto|lrr|tl|fg]
//	         [-sms n] [-scale f] [-v]
//	         [-trace-out f.json] [-events-out f.ndjson] [-metrics-out f.csv]
//	         [-energy-out f.csv] [-heatmap-out f.csv|f.json] [-audit-out f.csv|f.json]
//	         [-record-out f.ndjson] [-record-every k] [-replay-check f.ndjson]
//	         [-stalls] [-http :6060] [-parallel n] [-perf-out f.json]
//	         [-fault-rate f] [-fault-seed n] [-protect none|parity|secded|paper]
//
// -parallel n runs the benchmarks concurrently on an n-worker pool
// (internal/jobs), merging the summary rows in canonical order so the
// output is byte-identical to -parallel 1. It is a usage error combined
// with the shared-observer outputs below, which tee one stream across
// the whole benchmark loop.
//
// Observability: -trace-out writes a Chrome/Perfetto trace_event JSON
// file (open in ui.perfetto.dev), -events-out streams raw events as
// NDJSON, -metrics-out dumps the per-epoch metric time series as CSV,
// -stalls prints a stall-cycle attribution table per benchmark, and
// -http serves expvar/pprof plus a /metrics page while runs execute.
// -perf-out profiles the simulator itself: per-benchmark wall-clock
// phase timings plus the deterministic census of skippable cycles,
// written as a pilotrf-perfscope/v2 JSON report (see
// internal/perfscope).
//
// Energy attribution: -energy-out attaches the energy ledger and writes
// the per-SM per-epoch charge stream as CSV; -heatmap-out writes the
// per-register access/energy heatmap (CSV, or JSON when the path ends
// in .json); -audit-out writes the FRF swap-decision audit log (CSV or
// .json). All three are conservation-checked against the aggregate
// energy model before writing.
//
// Flight recorder: -record-out captures the run's architectural
// commitments (issue decisions, warp lifecycle, RF routing, swap
// installs, mode flips, periodic state checksums every -record-every
// cycles) as a pilotrf-flightrec/v3 NDJSON log; -replay-check re-runs
// the configuration against a prior recording and fails on the first
// mismatching event. Diff two recordings with cmd/rfdiff.
//
// Resilience: -fault-rate enables the seeded soft-error injector (see
// internal/fault) and prints per-benchmark fault outcome counters;
// -protect selects the ECC/parity scheme whose check-bit energy the
// ledger prices. A fault that exhausts its warp-level retries aborts the
// benchmark with a structured error. cmd/faultcampaign runs full
// classification campaigns on top of the same machinery.
//
// Every output path is created up front, before any simulation runs, so
// a bad path fails fast without leaving sibling files partially written.
// SIGINT/SIGTERM stop cleanly at the next benchmark boundary: completed
// rows stay printed, every output file flushes, and the process exits
// with code 3.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"pilotrf/internal/design"
	"pilotrf/internal/energy"
	"pilotrf/internal/fault"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/jobs"
	"pilotrf/internal/perfscope"
	"pilotrf/internal/profile"
	"pilotrf/internal/regfile"
	"pilotrf/internal/sim"
	"pilotrf/internal/telemetry"
	"pilotrf/internal/workloads"
)

// outFiles holds every requested output file, created eagerly before
// the run so path errors surface before any simulation — and before any
// sibling exporter has written a partial file. A creation failure
// removes the files already created.
type outFiles struct {
	files map[string]*os.File
	order []string
}

// openOutputs creates the non-empty paths. On any failure the files
// created so far are closed and removed.
func openOutputs(paths ...string) (*outFiles, error) {
	o := &outFiles{files: map[string]*os.File{}}
	for _, p := range paths {
		if p == "" {
			continue
		}
		if _, dup := o.files[p]; dup {
			o.removeAll()
			return nil, fmt.Errorf("output path %s used by two flags", p)
		}
		f, err := os.Create(p)
		if err != nil {
			o.removeAll()
			return nil, err
		}
		o.files[p] = f
		o.order = append(o.order, p)
	}
	return o, nil
}

// get returns the pre-created file for path ("" and unknown paths are nil).
func (o *outFiles) get(path string) *os.File { return o.files[path] }

// write streams into the pre-created file for path.
func (o *outFiles) write(path string, write func(io.Writer) error) error {
	if err := write(o.files[path]); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// closeAll closes every file, reporting the first error.
func (o *outFiles) closeAll() error {
	var first error
	for _, p := range o.order {
		if err := o.files[p].Close(); err != nil && first == nil {
			first = fmt.Errorf("closing %s: %w", p, err)
		}
	}
	return first
}

// removeAll closes and deletes every created file (the bad-path and
// bad-flag cleanup path).
func (o *outFiles) removeAll() {
	for _, p := range o.order {
		o.files[p].Close()
		os.Remove(p)
	}
}

// countingTracer prints the first N pipeline events.
type countingTracer struct {
	w     io.Writer
	limit int
	seen  int
}

// Event implements sim.Tracer.
func (t *countingTracer) Event(e sim.TraceEvent) {
	if t.seen < t.limit {
		fmt.Fprintln(t.w, e.String())
		t.seen++
	}
}

// usageError marks a bad flag value, exiting 2 rather than the runtime
// failures' 1.
type usageError struct{ error }

// printResult renders one benchmark's results: the summary row plus the
// optional fault, per-kernel, and stall sections. Both the sequential
// loop and the -parallel path render through it, so the merged parallel
// output is byte-identical to a sequential run.
func printResult(wr io.Writer, cfg sim.Config, scheme fault.Scheme, w workloads.Workload, rs sim.RunStats, verbose, stalls bool) {
	// Compiler-vs-oracle top-4 capture gap (Figure 4's category axis).
	var cgap, totalW float64
	for ki, k := range w.Kernels {
		h := rs.Kernels[ki].RegHist
		top := profile.CompilerTopN(k.Prog, 4)
		keys := make([]int, len(top))
		for i, r := range top {
			keys[i] = int(r)
		}
		wgt := float64(h.Total())
		cgap += (h.TopNShare(4) - h.Share(keys)) * wgt
		totalW += wgt
	}
	if totalW > 0 {
		cgap /= totalW
	}
	pilotFrac := 0.0
	if len(rs.Kernels) > 0 {
		pilotFrac = rs.Kernels[0].PilotFraction
	}
	var lowShare float64
	parts := rs.PartAccesses()
	if frf := parts[regfile.PartFRFHigh] + parts[regfile.PartFRFLow]; frf > 0 {
		lowShare = float64(parts[regfile.PartFRFLow]) / float64(frf)
	}
	fmt.Fprintf(wr, "%-10s %9d %8d %6.2f %6.2f %6.2f %7.2f %7.2f %7.2f %7.2f\n",
		w.Name, rs.TotalCycles(), rs.TotalAccesses(),
		rs.TopNShareByKernel(3), rs.TopNShareByKernel(4), rs.TopNShareByKernel(5),
		rs.FRFShare()*100, lowShare*100, pilotFrac*100, cgap)
	if cfg.Fault != nil {
		ft := rs.FaultTotals()
		fmt.Fprintf(wr, "    faults[%s]: injected=%d corrected=%d retried=%d silent=%d cam-corrupt=%d\n",
			scheme, ft.TotalInjected(), ft.Corrected, ft.DetectedRetry, ft.SilentReads, ft.CAMCorrupted)
	}
	if verbose {
		for _, ks := range rs.Kernels {
			fmt.Fprintf(wr, "    %-28s cycles=%-8d instrs=%-8d util=%.2f FRF=%.2f pilot=%.2f simt=%.2f colstall=%d bankq=%.2f\n",
				ks.Name, ks.Cycles, ks.WarpInstrs, ks.IssueUtilization(), ks.FRFShare(), ks.PilotFraction,
				ks.SIMTEfficiency(), ks.CollectorStalls, ks.AvgBankQueue(cfg.RF.Banks))
		}
	}
	if stalls {
		bd, busy, smCycles := rs.StallTotals()
		fmt.Fprintf(wr, "\n%s stall attribution (SM-cycles=%d busy=%d stalled=%d):\n%s\n",
			w.Name, smCycles, busy, smCycles-busy, bd.Table())
	}
}

// errInterrupted reports a SIGINT/SIGTERM shutdown: the benchmarks that
// completed were printed and every requested output file was flushed.
// It maps to exit code 3 so callers can tell a clean partial run from a
// failure.
var errInterrupted = errors.New("interrupted: remaining benchmarks skipped, outputs flushed")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errInterrupted) {
			os.Exit(3)
		}
		if _, ok := err.(usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pilotsim", flag.ContinueOnError)
	var (
		benchName   = fs.String("bench", "", "benchmark name (empty = all)")
		designName  = fs.String("design", "part-adaptive", strings.Join(design.Names(), " | "))
		prof        = fs.String("profile", "hybrid", "static | compiler | pilot | hybrid")
		sched       = fs.String("sched", "gto", "gto | lrr | tl | fg")
		sms         = fs.Int("sms", 2, "number of SMs")
		scale       = fs.Float64("scale", 1, "CTA count scale factor")
		seed        = fs.Uint64("seed", 0, "memory-content seed (0 = default)")
		verbose     = fs.Bool("v", false, "per-kernel detail")
		traceN      = fs.Int("trace", 0, "print the first N pipeline trace events")
		traceOut    = fs.String("trace-out", "", "write a Perfetto trace_event JSON file")
		eventsOut   = fs.String("events-out", "", "write pipeline events as NDJSON")
		metricsCSV  = fs.String("metrics-out", "", "write the per-epoch metric time series as CSV")
		energyOut   = fs.String("energy-out", "", "attach the energy ledger and write per-epoch charges as CSV")
		heatmapOut  = fs.String("heatmap-out", "", "write the per-register access/energy heatmap (CSV, or JSON for .json paths)")
		auditOut    = fs.String("audit-out", "", "write the FRF swap-decision audit log (CSV, or JSON for .json paths)")
		recordOut   = fs.String("record-out", "", "write the flight-recorder event log as NDJSON")
		recordEvery = fs.Int64("record-every", flightrec.DefaultChecksumEvery, "cycles between recorded state checksums")
		replayCheck = fs.String("replay-check", "", "verify this run against a prior -record-out log")
		stalls      = fs.Bool("stalls", false, "attribute stall cycles and print the breakdown")
		httpAddr    = fs.String("http", "", "serve expvar/pprof/metrics on this address (e.g. :6060)")
		faultRate   = fs.Float64("fault-rate", 0, "inject soft errors at this rate (upsets/bit/cycle at STV; 0 = off)")
		faultSeed   = fs.Uint64("fault-seed", 1, "fault-injection seed")
		protect     = fs.String("protect", "none", "RF protection scheme: none | parity | secded | paper")
		parallel    = fs.Int("parallel", 1, "run benchmarks concurrently on N pool workers (same bytes as 1; incompatible with shared-observer outputs)")
		perfOut     = fs.String("perf-out", "", "write the simulator's wall-clock phases & skippable-cycle census as pilotrf-perfscope/v2 JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel <= 0 {
		return usageError{fmt.Errorf("parallel must be positive, got %d", *parallel)}
	}
	if *parallel > 1 {
		// The observability exporters tee one shared stream (or ledger,
		// or recorder) across the whole benchmark loop; running
		// benchmarks concurrently would interleave them. Summary rows
		// merge deterministically, observer streams do not.
		if *traceN > 0 || *traceOut != "" || *eventsOut != "" || *metricsCSV != "" ||
			*energyOut != "" || *heatmapOut != "" || *auditOut != "" ||
			*recordOut != "" || *replayCheck != "" || *httpAddr != "" || *perfOut != "" {
			return usageError{fmt.Errorf("-parallel %d is incompatible with shared-observer outputs (-trace, -trace-out, -events-out, -metrics-out, -energy-out, -heatmap-out, -audit-out, -record-out, -replay-check, -http, -perf-out); rerun with -parallel 1", *parallel)}
		}
	}

	cfg := sim.DefaultConfig()
	cfg.NumSMs = *sms
	if *seed != 0 {
		cfg.Seed = *seed
	}
	sch, err := design.Resolve(*designName)
	if err != nil {
		return usageError{err}
	}
	switch *prof {
	case "static":
		cfg.Profiling = profile.TechniqueStaticFirstN
	case "compiler":
		cfg.Profiling = profile.TechniqueCompiler
	case "pilot":
		cfg.Profiling = profile.TechniquePilot
	case "hybrid":
		cfg.Profiling = profile.TechniqueHybrid
	default:
		return usageError{fmt.Errorf("unknown profile %q", *prof)}
	}
	switch *sched {
	case "gto":
		cfg.Policy = sim.PolicyGTO
	case "lrr":
		cfg.Policy = sim.PolicyLRR
	case "tl":
		cfg.Policy = sim.PolicyTL
	case "fg":
		cfg.Policy = sim.PolicyFetchGroup
	default:
		return usageError{fmt.Errorf("unknown scheduler %q", *sched)}
	}
	// The scheme applies after -sched so a scheme that mandates its own
	// scheduler (the RFC schemes run two-level, per the paper) wins over
	// the flag's default; the four legacy designs leave -sched alone.
	cfg, err = cfg.WithScheme(sch, sch.DefaultKnobs())
	if err != nil {
		return err
	}
	if *recordOut != "" && *replayCheck != "" {
		return usageError{fmt.Errorf("-record-out and -replay-check are mutually exclusive (replay verifies, it does not re-record)")}
	}
	scheme, err := fault.ParseScheme(*protect)
	if err != nil {
		return usageError{err}
	}
	cfg.Protect = scheme
	if *faultRate != 0 {
		cfg.Fault = &fault.Config{Rate: *faultRate, Seed: *faultSeed}
		if err := cfg.Fault.Validate(); err != nil {
			return usageError{err}
		}
	}

	var wls []workloads.Workload
	if *benchName == "" {
		wls = workloads.All()
	} else {
		w, err := workloads.ByName(*benchName)
		if err != nil {
			return err
		}
		wls = []workloads.Workload{w}
	}

	// The replay log loads before any output file is created: a missing
	// or malformed recording must not truncate fresh outputs.
	var checker *flightrec.Checker
	if *replayCheck != "" {
		log, err := flightrec.ReadFile(*replayCheck)
		if err != nil {
			return err
		}
		checker = flightrec.NewChecker(log)
		cfg.Record = checker
	}

	out, err := openOutputs(*traceOut, *eventsOut, *metricsCSV, *energyOut, *heatmapOut, *auditOut, *recordOut, *perfOut)
	if err != nil {
		return err
	}

	// Assemble the tracer chain: console preview, Perfetto export, and
	// NDJSON export can all observe the same run through one tee.
	var tracers []sim.Tracer
	if *traceN > 0 {
		tracers = append(tracers, &countingTracer{w: stdout, limit: *traceN})
	}
	if *traceOut != "" {
		tracers = append(tracers, sim.NewPerfettoTracer(out.get(*traceOut)))
	}
	if *eventsOut != "" {
		tracers = append(tracers, sim.NewNDJSONTracer(out.get(*eventsOut)))
	}
	switch len(tracers) {
	case 0:
	case 1:
		cfg.Tracer = tracers[0]
	default:
		cfg.Tracer = sim.NewTeeTracer(tracers...)
	}

	var led *energy.Ledger
	if *energyOut != "" || *heatmapOut != "" {
		led = energy.NewLedger(cfg.RF.Design, 0)
		cfg.Energy = led
	}
	var audit *profile.AuditLog
	if *auditOut != "" {
		audit = &profile.AuditLog{}
		cfg.Audit = audit
	}
	var flight *flightrec.Recorder
	if *recordOut != "" {
		flight = sim.NewFlightRecorder(&cfg, *benchName, *recordEvery)
		cfg.Record = flight
	}

	cfg.Stalls = *stalls
	var rec *telemetry.Recorder
	if *metricsCSV != "" || *httpAddr != "" {
		rec = sim.NewMetricsRecorder(0)
		cfg.Metrics = rec
	}
	if *httpAddr != "" {
		srv, err := telemetry.StartLive(*httpAddr, rec.Registry())
		if err != nil {
			out.removeAll()
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving expvar/pprof/metrics on %s\n", srv.Addr)
	}

	var ledgerParts [4]uint64
	var ledgerCycles int64

	// Benchmarks stop cleanly at the next boundary on SIGINT/SIGTERM:
	// the loop breaks, every requested output flushes, and the process
	// exits 3 instead of dying mid-write.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	interrupted := false

	fmt.Fprintf(stdout, "%-10s %9s %8s %6s %6s %6s %7s %7s %7s %7s\n",
		"bench", "cycles", "accesses", "top3", "top4", "top5", "FRF%", "low%", "pilot%", "cgap")
	if *parallel > 1 {
		// Each benchmark runs as an independent pool task rendering into
		// its own buffer; the buffers print in submission order, so the
		// output is byte-identical to a sequential run. SIGINT/SIGTERM
		// cancels the batch: running benchmarks finish, pending ones are
		// skipped, and the completed prefix still prints.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			select {
			case <-sigc:
				cancel()
			case <-ctx.Done():
			}
		}()
		pool, err := jobs.New(jobs.Config{Workers: *parallel})
		if err != nil {
			return err
		}
		defer pool.Close()
		tasks := make([]jobs.Task, len(wls))
		for i, w := range wls {
			w := w.Scale(*scale)
			tasks[i] = func(context.Context) (interface{}, error) {
				g, err := sim.New(cfg)
				if err != nil {
					return nil, err
				}
				rs, err := g.RunKernels(w.Name, w.Kernels)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", w.Name, err)
				}
				var buf strings.Builder
				printResult(&buf, cfg, scheme, w, rs, *verbose, *stalls)
				return buf.String(), nil
			}
		}
		batch, err := pool.Submit(ctx, tasks)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return errInterrupted
			}
			return err
		}
		// Wait on the background context: after a cancellation the
		// pending tasks finish instantly with the context error, and
		// the completed prefix below still prints.
		results, _ := batch.Wait(context.Background())
		for _, r := range results {
			if errors.Is(r.Err, context.Canceled) {
				interrupted = true
				break
			}
			if r.Err != nil {
				return r.Err
			}
			io.WriteString(stdout, r.Value.(string))
		}
	} else {
		var perfEntries []perfscope.Entry
		for _, w := range wls {
			select {
			case <-sigc:
				interrupted = true
			default:
			}
			if interrupted {
				break
			}
			w = w.Scale(*scale)
			if *perfOut != "" {
				// One profiler per benchmark so the report attributes
				// wall time and the census per workload row.
				cfg.Perf = perfscope.New(true)
			}
			g, err := sim.New(cfg)
			if err != nil {
				return err
			}
			rs, err := g.RunKernels(w.Name, w.Kernels)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if cfg.Perf != nil {
				perfEntries = append(perfEntries, perfscope.NewEntry(w.Name, *designName, cfg.Perf))
			}
			if led != nil {
				for p, n := range rs.PartAccesses() {
					ledgerParts[p] += n
				}
				ledgerCycles += rs.TotalCycles()
			}
			printResult(stdout, cfg, scheme, w, rs, *verbose, *stalls)
		}
		if *perfOut != "" {
			if err := out.write(*perfOut, perfscope.NewReport(perfEntries).WriteJSON); err != nil {
				return err
			}
		}
	}

	if err := sim.FlushTracer(cfg.Tracer); err != nil {
		return fmt.Errorf("flushing trace: %w", err)
	}
	if *metricsCSV != "" {
		if err := out.write(*metricsCSV, rec.WriteCSV); err != nil {
			return err
		}
	}
	if led != nil {
		if err := led.CheckConservation(ledgerParts, ledgerCycles); err != nil {
			return fmt.Errorf("energy ledger conservation violated: %w", err)
		}
		if *energyOut != "" {
			if err := out.write(*energyOut, led.WriteEpochCSV); err != nil {
				return err
			}
		}
		if *heatmapOut != "" {
			w := led.WriteHeatmapCSV
			if strings.HasSuffix(*heatmapOut, ".json") {
				w = led.WriteHeatmapJSON
			}
			if err := out.write(*heatmapOut, w); err != nil {
				return err
			}
		}
	}
	if audit != nil {
		w := audit.WriteCSV
		if strings.HasSuffix(*auditOut, ".json") {
			w = audit.WriteJSON
		}
		if err := out.write(*auditOut, w); err != nil {
			return err
		}
	}
	if flight != nil {
		if err := out.write(*recordOut, flight.Log().WriteNDJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %d flight-recorder events to %s\n", flight.Len(), *recordOut)
	}
	if err := out.closeAll(); err != nil {
		return err
	}
	if checker != nil {
		if err := checker.Err(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "replay-check: %d events match %s\n", checker.Checked(), *replayCheck)
	}
	if interrupted {
		return errInterrupted
	}
	return nil
}
