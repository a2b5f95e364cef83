// Command faultcampaign runs seeded soft-error injection campaigns over
// the register-file designs and protection schemes and classifies every
// trial's outcome:
//
//	masked                  — faults struck but never corrupted consumed
//	                          dataflow (dead cells, overwrites, no strikes)
//	corrected               — a protection code corrected or retried at
//	                          least one strike; dataflow stayed golden
//	detected-unrecoverable  — parity detection exhausted its warp-level
//	                          retries and the kernel aborted cleanly
//	sdc                     — silent data corruption: the run completed
//	                          but its dataflow digest diverged from the
//	                          fault-free golden run, or the corrupted
//	                          control flow span past the watchdog budget
//	                          (50x the golden run's cycles)
//
// SDC detection compares the flight recorder's commutative read digest
// against a fault-free golden run of the same (design, workload), so
// timing drift from retries never masquerades as corruption.
//
// Usage:
//
//	faultcampaign [-bench csv] [-designs csv] [-protect csv]
//	              [-trials n] [-rate f] [-seed n] [-scale f] [-sms n]
//	              [-parallel n] [-cache-dir dir] [-coordinator url]
//	              [-trace-spans spans.ndjson] [-trace-perfetto trace.json]
//	              [-out report.json] [-v]
//
// -coordinator runs the campaign on a pilotserve coordinator's worker
// fleet instead of the local pool: the spec is submitted as a job, the
// NDJSON progress is streamed, and the resulting report is
// byte-identical to a local run of the same flags (the fleet merges
// remotely computed cells in the same canonical order). The client
// rides out coordinator restarts by resubmitting — cells completed
// before a crash replay from the coordinator's cache. -trace-spans and
// -trace-perfetto fetch the job's span tree from the coordinator.
//
// The golden runs and every cell's trials are independent simulations;
// -parallel runs them on a work-stealing pool (internal/jobs) with one
// worker per core by default. The merge is in canonical submission
// order, so the report is byte-identical to -parallel 1 for the same
// flags. -cache-dir persists golden digests and finished cells under
// content-addressed keys: re-sweeps with overlapping grids and
// campaigns interrupted partway resume instead of recomputing, and a
// corrupt cache entry silently degrades to recomputation.
//
// The whole campaign derives from -seed: equal flags produce a
// byte-identical report.
//
// -trace-spans records the campaign's span tree (golden runs, cells,
// trials, pool tasks, cache annotations) as pilotrf-spans/v1 NDJSON;
// the span ids and parentage are derived from the campaign spec, so
// the tree is identical at any -parallel, while wall-clock timings
// ride in clearly separated nondeterministic sections. -trace-perfetto
// additionally converts the same recording to Chrome/Perfetto
// trace_event JSON for ui.perfetto.dev.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pilotrf/internal/campaign"
	"pilotrf/internal/design"
	"pilotrf/internal/jobs"
	"pilotrf/internal/trace"
)

// Schema identifies the report format; bump on incompatible change.
const Schema = campaign.Schema

// The report types live in internal/campaign (shared with the job
// server); the aliases keep this command's public shape unchanged.
type (
	// Report is the versioned campaign result.
	Report = campaign.Report
	// Cell is one (design, protection, workload) campaign cell.
	Cell = campaign.Cell
	// Outcomes counts trial classifications within one cell.
	Outcomes = campaign.Outcomes
)

// usageError marks a bad flag value, exiting 2 rather than the runtime
// failures' 1.
type usageError struct{ error }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if _, ok := err.(usageError); ok {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// splitCSV splits a comma-separated flag into trimmed names.
func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("faultcampaign", flag.ContinueOnError)
	var (
		benchName = fs.String("bench", "", "comma-separated benchmark names (empty = all)")
		designs   = fs.String("designs", "mrf-ntv,part,part-adaptive", "comma-separated design schemes, each at its default knobs ("+strings.Join(design.Names(), " | ")+")")
		protect   = fs.String("protect", "none,parity,secded,paper", "comma-separated protection schemes (none | parity | secded | paper)")
		trials    = fs.Int("trials", 5, "seeded injection trials per cell")
		rate      = fs.Float64("rate", 2e-11, "accelerated soft-error rate (upsets/bit/cycle at STV)")
		seed      = fs.Uint64("seed", 1, "campaign seed; the whole report derives from it")
		scale     = fs.Float64("scale", 0.05, "CTA count scale factor")
		sms       = fs.Int("sms", 2, "number of SMs")
		parallel  = fs.Int("parallel", jobs.DefaultWorkers(), "worker count for golden runs and trials (1 = sequential; same bytes either way)")
		cacheDir  = fs.String("cache-dir", "", "persist golden runs and finished cells here (content-addressed; corrupt entries recompute)")
		coordURL  = fs.String("coordinator", "", "run the campaign on this pilotserve coordinator (-role coordinator) instead of locally; the report is byte-identical either way")
		outPath   = fs.String("out", "", "write the JSON report here (empty = stdout)")
		spansPath = fs.String("trace-spans", "", "write the campaign span tree here as pilotrf-spans/v1 NDJSON")
		perfPath  = fs.String("trace-perfetto", "", "write the campaign span tree here as Perfetto trace_event JSON")
		verbose   = fs.Bool("v", false, "print a per-cell summary table and a cache summary line")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel <= 0 {
		return usageError{fmt.Errorf("parallel must be positive, got %d", *parallel)}
	}

	spec := campaign.Spec{
		Benchmarks: splitCSV(*benchName),
		Designs:    splitCSV(*designs),
		Protect:    splitCSV(*protect),
		Trials:     *trials,
		Rate:       *rate,
		Seed:       *seed,
		Scale:      *scale,
		SMs:        *sms,
	}
	// Spec zero values select defaults, so explicitly bad flag values
	// must be rejected here as usage errors before any simulation runs.
	if *trials <= 0 {
		return usageError{fmt.Errorf("trials must be positive, got %d", *trials)}
	}
	if *rate <= 0 {
		return usageError{fmt.Errorf("rate must be a positive finite upsets/bit/cycle, got %v", *rate)}
	}
	if err := spec.Validate(); err != nil {
		return usageError{err}
	}

	cellRow := func(c campaign.Cell) {
		o := c.Outcomes
		fmt.Fprintf(stdout, "%-14s %-8s %-10s %7d %7d %7d %7d %9d\n",
			c.Design, c.Protection, c.Workload,
			o.Masked, o.Corrected, o.DetectedUnrecoverable, o.SDC, c.Injected)
	}
	cellHeader := func() {
		fmt.Fprintf(stdout, "%-14s %-8s %-10s %7s %7s %7s %7s %9s\n",
			"design", "protect", "bench", "masked", "corr", "unrec", "sdc", "injected")
	}

	var rep Report
	var cache *jobs.Cache
	if *coordURL != "" {
		// Remote mode: the campaign runs on a pilotserve coordinator's
		// fleet; -parallel and -cache-dir govern local execution only and
		// are ignored here (the coordinator owns both).
		var progress io.Writer
		if *verbose {
			progress = os.Stderr
		}
		var jobID string
		var err error
		rep, jobID, err = runRemote(*coordURL, spec, progress)
		if err != nil {
			return err
		}
		if *spansPath != "" {
			if err := fetchRemoteTrace(*coordURL, jobID, "", *spansPath); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote remote spans to %s\n", *spansPath)
		}
		if *perfPath != "" {
			if err := fetchRemoteTrace(*coordURL, jobID, "perfetto", *perfPath); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote remote Perfetto trace to %s\n", *perfPath)
		}
		if *verbose {
			// Remote cells arrive all at once with the report; the table
			// is identical to a local run's because the order is
			// canonical either way.
			cellHeader()
			for _, c := range rep.Cells {
				cellRow(c)
			}
		}
	} else {
		if *cacheDir != "" {
			var err error
			if cache, err = jobs.OpenCache(*cacheDir); err != nil {
				return err
			}
		}
		pool, err := jobs.New(jobs.Config{Workers: *parallel})
		if err != nil {
			return err
		}
		defer pool.Close()

		opt := campaign.Options{Pool: pool, Cache: cache}
		var rec *trace.Recorder
		if *spansPath != "" || *perfPath != "" {
			// Wall-clock sections on: the CLI recording is for humans
			// reading waterfalls, and the deterministic projection is still
			// recoverable via trace.StripWall.
			rec = trace.NewRecorder(true)
			opt.Trace = rec
		}
		if *verbose {
			cellHeader()
			opt.CellDone = cellRow
		}
		rep, err = campaign.Run(context.Background(), spec, opt)
		if err != nil {
			return err
		}

		if rec != nil {
			spans := rec.Spans()
			if *spansPath != "" {
				if err := trace.WriteSpansFile(*spansPath, spans); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", len(spans), *spansPath)
			}
			if *perfPath != "" {
				f, err := os.Create(*perfPath)
				if err != nil {
					return err
				}
				if err := trace.WritePerfetto(f, spans); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote Perfetto trace to %s\n", *perfPath)
			}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d cells to %s\n", len(rep.Cells), *outPath)
	} else if _, err := stdout.Write(buf); err != nil {
		return err
	}
	if *verbose && cache != nil {
		st := cache.Stats()
		fmt.Fprintf(stdout, "cache %s: %d hits, %d misses (%d corrupt), %d writes\n",
			cache.Dir(), st.Hits, st.Misses, st.Corrupt, st.Puts)
	}
	return nil
}
