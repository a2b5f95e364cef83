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
//	              [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	              [-out report.json] [-v]
//
// -coordinator runs the campaign on a pilotserve coordinator's worker
// fleet instead of the local pool: the spec is submitted as a job, the
// NDJSON progress is streamed, and the resulting report is
// byte-identical to a local run of the same flags (the fleet merges
// remotely computed cells in the same canonical order). Every request
// goes through internal/fleet's Link: refused connections, 429 and 5xx
// answers retry with backoff for up to 2 minutes, and any other 4xx
// (a rejected spec) fails at once with the server's message. The client
// rides out coordinator restarts by resubmitting after a broken stream
// or a 404 for its job — cells completed before a crash replay from the
// coordinator's cache. With -trace-spans or -trace-perfetto the job's
// span tree is fetched once, as NDJSON, and both files are written
// locally, so they equal the coordinator's GET /v1/jobs/{id}/trace and
// its ?format=perfetto.
//
// The golden runs and every cell's trials are independent simulations;
// -parallel runs them on a worker pool (internal/jobs) with one worker
// per core by default. The merge is in canonical submission order, so
// the report is byte-identical to -parallel 1 for the same flags.
// -cache-dir persists golden digests and finished cells under
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
//
// -cpuprofile and -memprofile write runtime/pprof CPU and heap profiles
// of the campaign (read them with go tool pprof); the report and stdout
// are the same bytes with or without them.
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
	"pilotrf/internal/telemetry"
	"pilotrf/internal/trace"
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

func run(args []string, stdout io.Writer) (err error) {
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
		cpuPath   = fs.String("cpuprofile", "", "write a CPU profile of the campaign here")
		memPath   = fs.String("memprofile", "", "write a heap profile here after the campaign")
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

	stopProfiles, err := telemetry.StartProfiles(*cpuPath, *memPath)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); err == nil {
			err = perr
		}
	}()

	var (
		rep   campaign.Report
		spans []trace.Span
		cache *jobs.Cache
	)
	tracing := *spansPath != "" || *perfPath != ""
	if *coordURL != "" {
		// Remote mode: the campaign runs on a pilotserve coordinator's
		// fleet; -parallel and -cache-dir govern local execution only and
		// are ignored here (the coordinator owns both).
		var progress io.Writer
		if *verbose {
			progress = os.Stderr
		}
		if rep, spans, err = runRemote(*coordURL, spec, tracing, progress, os.Stderr); err != nil {
			return err
		}
	} else {
		if *cacheDir != "" {
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
		if tracing {
			// Wall-clock sections on: the CLI recording is for humans
			// reading waterfalls, and the deterministic projection is still
			// recoverable via trace.StripWall.
			opt.Trace = trace.NewRecorder(true)
		}
		if rep, err = campaign.Run(context.Background(), spec, opt); err != nil {
			return err
		}
		spans = opt.Trace.Spans()
	}

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

	if *verbose {
		// The report's cells are in canonical order whether they ran
		// locally or on a fleet, so the table is the same either way.
		fmt.Fprintf(stdout, "%-14s %-8s %-10s %7s %7s %7s %7s %9s\n",
			"design", "protect", "bench", "masked", "corr", "unrec", "sdc", "injected")
		for _, c := range rep.Cells {
			o := c.Outcomes
			fmt.Fprintf(stdout, "%-14s %-8s %-10s %7d %7d %7d %7d %9d\n",
				c.Design, c.Protection, c.Workload,
				o.Masked, o.Corrected, o.DetectedUnrecoverable, o.SDC, c.Injected)
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
