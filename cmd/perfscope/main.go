// Command perfscope profiles the simulator itself across the benchmark
// suite: for every workload x design cell it runs the kernels with the
// perfscope census attached and reports how many SM cycles an
// event-driven skip-ahead loop could avoid simulating — the measurement
// that gates the ROADMAP's event-driven rewrite.
//
// Usage:
//
//	perfscope [-bench a,b | empty = all] [-designs mrf-stv,mrf-ntv,part,part-adaptive]
//	          [-sms n] [-scale f] [-seed n] [-parallel n] [-out f.json]
//	          [-wallclock]
//
// The default census-only report is byte-reproducible: the census
// depends only on architectural state, cells run as independent tasks
// on a worker pool (internal/jobs), and the report merges in canonical
// (workload, design) order — so -parallel n writes the same bytes as
// -parallel 1, and equal flags produce equal files forever.
//
// -wallclock additionally times every tick phase (events, fault, issue,
// collect, banks, adaptive, telemetry, energy, record) and attaches the
// per-cell wall section to the report. Wall time is non-deterministic,
// so -wallclock reports are NOT byte-reproducible; leave it off for
// reports that are compared or cached by content.
//
// The stdout table shows, per cell: observed SM cycles, the four census
// classes as percentages (busy / active-no-issue / skippable /
// stalled-unknown), the number of maximal skippable runs with their
// mean length (the jumps an event-driven loop would take), and the
// Amdahl-style projected speedup ceiling.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pilotrf/internal/design"
	"pilotrf/internal/jobs"
	"pilotrf/internal/perfscope"
	"pilotrf/internal/sim"
	"pilotrf/internal/workloads"
)

// usageError marks a bad flag value, exiting 2 rather than 1.
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

// cell is one workload x design profiling task.
type cell struct {
	w      workloads.Workload
	scheme design.Scheme
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfscope", flag.ContinueOnError)
	var (
		benchList  = fs.String("bench", "", "comma-separated benchmark names (empty = all)")
		designList = fs.String("designs", "mrf-stv,mrf-ntv,part,part-adaptive", "comma-separated design schemes to profile, each at its default knobs")
		sms        = fs.Int("sms", 2, "number of SMs")
		scale      = fs.Float64("scale", 1, "CTA count scale factor")
		seed       = fs.Uint64("seed", 0, "memory-content seed (0 = default)")
		parallel   = fs.Int("parallel", 1, "profile cells concurrently on N pool workers (same bytes as 1)")
		out        = fs.String("out", "", "write the pilotrf-perfscope/v1 JSON report here")
		wallclock  = fs.Bool("wallclock", false, "also time tick phases (non-deterministic; report loses byte-reproducibility)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel <= 0 {
		return usageError{fmt.Errorf("parallel must be positive, got %d", *parallel)}
	}
	if *sms <= 0 {
		return usageError{fmt.Errorf("sms must be positive, got %d", *sms)}
	}
	if *scale <= 0 {
		return usageError{fmt.Errorf("scale must be positive, got %v", *scale)}
	}

	var designs []design.Scheme
	for _, name := range strings.Split(*designList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		sch, err := design.Resolve(name)
		if err != nil {
			return usageError{err}
		}
		designs = append(designs, sch)
	}
	if len(designs) == 0 {
		return usageError{errors.New("no designs selected")}
	}
	var wls []workloads.Workload
	if *benchList == "" {
		wls = workloads.All()
	} else {
		for _, name := range strings.Split(*benchList, ",") {
			w, err := workloads.ByName(strings.TrimSpace(name))
			if err != nil {
				return usageError{err}
			}
			wls = append(wls, w)
		}
	}

	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		outFile = f
	}

	cells := make([]cell, 0, len(wls)*len(designs))
	for _, w := range wls {
		for _, d := range designs {
			cells = append(cells, cell{w: w.Scale(*scale), scheme: d})
		}
	}

	pool, err := jobs.New(jobs.Config{Workers: *parallel})
	if err != nil {
		return err
	}
	defer pool.Close()
	tasks := make([]jobs.Task, len(cells))
	for i, c := range cells {
		c := c
		tasks[i] = func(context.Context) (interface{}, error) {
			cfg, err := sim.DefaultConfig().WithScheme(c.scheme, c.scheme.DefaultKnobs())
			if err != nil {
				return nil, err
			}
			cfg.NumSMs = *sms
			if *seed != 0 {
				cfg.Seed = *seed
			}
			p := perfscope.New(*wallclock)
			cfg.Perf = p
			g, err := sim.New(cfg)
			if err != nil {
				return nil, err
			}
			if _, err := g.RunKernels(c.w.Name, c.w.Kernels); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", c.w.Name, c.scheme.Name(), err)
			}
			return perfscope.NewEntry(c.w.Name, c.scheme.Name(), p), nil
		}
	}
	batch, err := pool.Submit(context.Background(), tasks)
	if err != nil {
		return err
	}
	results, _ := batch.Wait(context.Background())
	entries := make([]perfscope.Entry, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
		entries = append(entries, r.Value.(perfscope.Entry))
	}

	report := perfscope.NewReport(entries)
	printTable(stdout, report)
	if *wallclock {
		printWall(stdout, report)
	}
	if outFile != nil {
		if err := report.WriteJSON(outFile); err != nil {
			outFile.Close()
			return fmt.Errorf("writing %s: %w", *out, err)
		}
		if err := outFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d-entry perfscope report to %s\n", len(report.Entries), *out)
	}
	return nil
}

// printTable renders the skip-headroom census, one row per cell plus
// the total.
func printTable(w io.Writer, r *perfscope.Report) {
	fmt.Fprintf(w, "%-10s %-13s %10s %6s %7s %6s %8s %8s %8s %8s\n",
		"bench", "design", "sm-cycles", "busy%", "active%", "skip%", "unknown%", "jumps", "meanjump", "speedup")
	row := func(e perfscope.Entry) {
		c := e.Census
		pct := func(n uint64) float64 {
			if c.SMCycles == 0 {
				return 0
			}
			return 100 * float64(n) / float64(c.SMCycles)
		}
		meanJump := 0.0
		if c.SkipRuns > 0 {
			meanJump = float64(c.Skippable) / float64(c.SkipRuns)
		}
		fmt.Fprintf(w, "%-10s %-13s %10d %6.2f %7.2f %6.2f %8.2f %8d %8.1f %8.3f\n",
			e.Workload, e.Design, c.SMCycles,
			pct(c.Busy), pct(c.ActiveNoIssue), pct(c.Skippable), pct(c.StalledUnknown),
			c.SkipRuns, meanJump, e.ProjectedSpeedup)
	}
	for _, e := range r.Entries {
		row(e)
	}
	row(r.Total)
}

// printWall renders the aggregate per-phase wall-clock split.
func printWall(w io.Writer, r *perfscope.Report) {
	var total int64
	phases := map[string]int64{}
	for _, e := range r.Entries {
		if e.Wall == nil {
			continue
		}
		total += e.Wall.TotalNS
		for name, ns := range e.Wall.PhaseNS {
			phases[name] += ns
		}
	}
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "\nwall-clock phase split (total %.3fs inside instrumented ticks):\n", float64(total)/1e9)
	for i := 0; i < perfscope.NumPhases; i++ {
		name := perfscope.Phase(i).String()
		ns := phases[name]
		fmt.Fprintf(w, "  %-10s %8.3fs %6.2f%%\n", name, float64(ns)/1e9, 100*float64(ns)/float64(total))
	}
}
