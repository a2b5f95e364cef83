// Command dse sweeps the registered register-file design schemes
// across their knob grids (partition sizes, RFC entry counts, gating
// granularities, supply voltages) and the Table I workload pool, then
// reports the energy-vs-IPC Pareto frontier.
//
// Usage:
//
//	dse [-schemes a,b,...] [-bench w1,w2,...] [-scale f] [-sms n]
//	    [-parallel n] [-out report.json] [-csv points.csv] [-replay=false]
//
// Every grid point runs with the energy ledger attached and its
// conservation check enforced; default-knob points additionally replay
// their first workload against a flight recording. The JSON report
// ("pilotrf-dse/v1") and the CSV are canonical: the bytes do not depend
// on -parallel, which the CI smoke job verifies by diffing two runs.
//
// Exit codes: 0 success, 1 sweep or I/O failure, 2 usage error (the
// valid scheme names are listed).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pilotrf/internal/design"
	"pilotrf/internal/dse"
	"pilotrf/internal/jobs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the sweep; factored from main so the tests drive the
// whole flag-to-report path in process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemes  = fs.String("schemes", "", "comma-separated design scheme names (empty = all registered)")
		bench    = fs.String("bench", "", "comma-separated workload names (empty = the whole Table I pool)")
		scale    = fs.Float64("scale", 1, "workload CTA scale factor")
		sms      = fs.Int("sms", 1, "simulated SMs")
		parallel = fs.Int("parallel", jobs.DefaultWorkers(), "worker count (the report is byte-identical at any value)")
		out      = fs.String("out", "", "write the pilotrf-dse/v1 JSON report to this file (empty = stdout table only)")
		csvPath  = fs.String("csv", "", "write every point as CSV (with a pareto column) to this file")
		replay   = fs.Bool("replay", true, "replay each default-knob point's first workload against its flight recording")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parallel <= 0 {
		fmt.Fprintf(stderr, "-parallel must be >= 1, got %d\n", *parallel)
		return 2
	}
	names, err := splitNames(*schemes)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	rep, err := dse.Sweep(context.Background(), dse.Options{
		Schemes:   names,
		Workloads: splitList(*bench),
		Scale:     *scale,
		SMs:       *sms,
		Workers:   *parallel,
		Replay:    *replay,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	fmt.Fprintf(stdout, "=== Design-space exploration: %d points, %d workloads, baseline %s ===\n",
		len(rep.Points), len(rep.Workloads), rep.Baseline)
	if err := dse.WriteTable(stdout, rep); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	frontier := dse.Frontier(rep.Points)
	fmt.Fprintf(stdout, "  %d of %d points on the Pareto frontier\n", len(frontier), len(rep.Points))

	if *out != "" {
		if err := writeFile(*out, func(f *os.File) error { return dse.Write(f, rep) }); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, func(f *os.File) error { return dse.WriteCSV(f, rep) }); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "CSV written to %s\n", *csvPath)
	}
	return 0
}

// splitNames parses the -schemes list, failing fast (exit 2 at the
// caller) with the valid names when one is unknown.
func splitNames(s string) ([]string, error) {
	names := splitList(s)
	for _, n := range names {
		if _, err := design.Resolve(n); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// splitList splits a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// writeFile creates path and streams fn into it.
func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
