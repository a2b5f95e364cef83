// Command pilotbench is the repository's end-to-end benchmark. It runs
// each selected workload in a child process of its own, measures the
// end-to-end metrics BENCHMARK.json declares (or, with -trace 1, the
// per-layer metrics, recording spans around every layer call), checks
// the outputs it measured, prints one line per metric, and ends with a
// JSON result line.
//
// Usage:
//
//	pilotbench [-workload name|all] [-seed n] [-seconds run_seconds]
//	           [-trace 0|1] [-out file] [-spans dir] [-pilotserve path]
//	pilotbench compare <setA> <setB>
//
// BENCHMARK.json's run_seconds alone sets how much work a run does;
// -seconds, which callers of the benchmark pass, must equal it.
// bench/run.sh builds pilotbench and pilotserve from the checkout and
// runs this command from the repository root; bench/README.md describes
// the workloads, the metrics and how their bounds were chosen.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"pilotrf/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the command-line settings shared by parent and child.
type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      int
	out        string
	spans      string
	pilotserve string
}

// runner measures one workload and checks its outputs.
type runner func(ctx context.Context, e *env) (*outcome, error)

// runners maps each workload to its implementation.
var runners = map[string]runner{
	wDetached: func(ctx context.Context, e *env) (*outcome, error) { return runSuite(ctx, e, detachedParams()) },
	wObserved: func(ctx context.Context, e *env) (*outcome, error) { return runSuite(ctx, e, observedParams()) },
	wCampaign: func(ctx context.Context, e *env) (*outcome, error) {
		return runCampaign(ctx, e, defaultCampaignParams())
	},
	wServe: func(ctx context.Context, e *env) (*outcome, error) { return runServe(ctx, e, defaultServeParams()) },
}

// env is what a workload runner gets from the command line and
// BENCHMARK.json.
type env struct {
	seed       uint64
	budget     time.Duration // nominal length of the timed phase (run_seconds)
	pilotserve string        // pilotserve binary (serve-closed)
	tmp        string        // scratch directory, removed afterwards
	cal        *calibrator   // scales measured times to a nominal host speed
	pace       *pacer        // the timed phase's pacer, once it has begun

	// spans records the benchmark's own spans around every layer call;
	// nil (a valid no-op recorder) unless the run is traced.
	spans *trace.Recorder
	root  *trace.ActiveSpan
}

// traced reports whether this run records spans and per-layer metrics.
func (e *env) traced() bool { return e.spans != nil }

// startPhase begins the timed phase: units of work of the given nominal
// duration, as many as the budget holds and at least least, within the
// wall-clock limit.
func (e *env) startPhase(nominal time.Duration, least int) *pacer {
	e.pace = newPacer(e.budget, nominal, time.Duration(wallLimit*float64(e.budget)), least)
	return e.pace
}

// outcome is a workload's measurement and its correctness tally.
type outcome struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
}

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// result is a child's report to the parent, and the record -out keeps.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
}

// valueUnit is one metric of the printed result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// record is one line of an -out file: a result line plus what
// pilotbench compare groups by.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	resultLine
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("pilotbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(allWorkloads, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (1 is the default, 7 the held-out seed)")
	fs.IntVar(&o.seconds, "seconds", 0, "run_seconds of BENCHMARK.json, which alone sets the run's length; any other value is refused")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and span files instead of end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "append each result to this file as one JSON line")
	fs.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory for the span files of traced runs")
	fs.StringVar(&o.pilotserve, "pilotserve", "", "pilotserve binary built from this checkout (serve-closed)")
	child := fs.Bool("child", false, "measure one workload in this process (the parent passes it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := allWorkloads
	if o.workload != "all" {
		if runners[o.workload] == nil {
			fmt.Fprintf(stderr, "unknown workload %q (want %s or all)\n", o.workload, strings.Join(allWorkloads, ", "))
			return 2
		}
		names = []string{o.workload}
	}
	if fs.NArg() != 0 || (o.trace != 0 && o.trace != 1) || (*child && len(names) != 1) {
		fmt.Fprintln(stderr, "usage: pilotbench [-workload name|all] [-seed n] [-seconds run_seconds] [-trace 0|1] [-out file]")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if o.seconds != 0 && o.seconds != spec.RunSeconds {
		fmt.Fprintf(stderr, "-seconds %d differs from run_seconds %d in %s, which sets the run's length\n",
			o.seconds, spec.RunSeconds, specFile)
		return 2
	}
	if *child {
		return runChild(ctx, o, spec, stdout, stderr)
	}

	var lines []record
	correct := true
	for _, name := range names {
		res, err := spawn(ctx, o, name, stderr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		rl, err := reportLine(spec, res)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		printTable(stdout, spec, res, rl)
		rec := record{Workload: name, Seed: o.seed, Trace: o.trace, resultLine: rl}
		if o.out != "" {
			if err := appendRecord(o.out, rec); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		lines = append(lines, rec)
		correct = correct && rl.Correct
	}
	enc := json.NewEncoder(stdout)
	if len(lines) == 1 {
		err = enc.Encode(lines[0].resultLine)
	} else {
		err = enc.Encode(lines)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// spawn measures one workload in a child process and returns its result.
func spawn(ctx context.Context, o options, name string, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", fmt.Sprint(o.seed), "-trace", fmt.Sprint(o.trace),
		"-spans", o.spans, "-pilotserve", o.pilotserve)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var res result
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("%s: reading the child's result: %w", name, err)
	}
	return &res, nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// runChild measures one workload in this process and prints its result.
func runChild(ctx context.Context, o options, spec *benchSpec, stdout, stderr io.Writer) int {
	tmp, err := os.MkdirTemp("", "pilotbench-")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{
		seed:       o.seed,
		budget:     time.Duration(spec.RunSeconds) * time.Second,
		pilotserve: o.pilotserve,
		tmp:        tmp,
		cal:        newCalibrator(),
	}
	if o.trace == 1 {
		e.spans = trace.NewRecorder(true)
		e.root = e.spans.Root("pilotbench", trace.TraceID("pilotbench", o.workload, fmt.Sprint(o.seed)), o.workload)
		e.root.SetAttr("workload", o.workload)
		e.root.SetAttr("seed", fmt.Sprint(o.seed))
	}
	oc, err := runners[o.workload](ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", o.workload, err)
		return 1
	}
	if e.traced() {
		e.root.End()
		if err := writeSpans(o.spans, fmt.Sprintf("%s-seed%d", o.workload, o.seed), e.spans.Spans()); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	oc.metrics["host.scale"] = e.cal.runScale(time.Time{})
	if e.pace != nil && e.pace.truncated.Load() {
		oc.metrics["host.truncated"] = 1
	}
	res := result{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed,
		Metrics: oc.metrics, Problems: oc.problems,
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// writeSpans writes a traced run's spans as pilotrf-spans/v1 NDJSON and
// as a Perfetto trace_event file next to it.
func writeSpans(dir, base string, spans []trace.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := trace.WriteSpansFile(filepath.Join(dir, base+".ndjson"), spans); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, base+".perfetto.json"))
	if err != nil {
		return err
	}
	if err := trace.WritePerfetto(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportLine selects the metrics BENCHMARK.json declares for the run's
// mode. A declared metric the workload does not exercise reads 0; one it
// exercises but did not measure is a bug in the benchmark.
func reportLine(spec *benchSpec, res *result) (resultLine, error) {
	rl := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]valueUnit{}}
	if res.Attempted < 1 {
		return rl, fmt.Errorf("%s attempted no operations", res.Workload)
	}
	for _, m := range spec.metrics(res.Trace == 1) {
		v, ok := res.Metrics[m.Name]
		if !ok && applies(spec, m.Name, res.Workload) {
			return rl, fmt.Errorf("%s did not measure %s", res.Workload, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rl, fmt.Errorf("%s measured %s = %v", res.Workload, m.Name, v)
		}
		rl.Metrics[m.Name] = valueUnit{Value: v, Unit: m.Unit}
	}
	return rl, nil
}

// printTable prints the run's metrics, one per line, with their units
// and, for the modelled register file, the paper's figures beside them.
func printTable(w io.Writer, spec *benchSpec, res *result, rl resultLine) {
	fmt.Fprintf(w, "%s seed=%d trace=%d correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Trace, rl.Correct, rl.Attempted, rl.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
	for _, m := range spec.metrics(res.Trace == 1) {
		note := ""
		if !applies(spec, m.Name, res.Workload) {
			note = "  (not exercised by this workload)"
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-8s%s\n", m.Name, rl.Metrics[m.Name].Value, m.Unit, note)
	}
	fmt.Fprintf(w, "  timed phase %.1f s wall; times are scaled to the nominal host speed by %.3f (see bench/README.md)\n",
		res.Metrics["host.phase_s"], res.Metrics["host.scale"])
	if res.Metrics["host.truncated"] != 0 {
		fmt.Fprintf(w, "  TRUNCATED: the host was too slow for the planned work within %.2f x run_seconds of wall-clock time\n",
			wallLimit)
	}
	if v, ok := res.Metrics["rf.energy_saving_pct"]; ok {
		fmt.Fprintf(w, "  model: RF dynamic-energy saving %.2f%% (paper 54%%), hybrid-GTO cycle overhead %.2f%% (paper <2%%), %0.f simulated cycles\n",
			v, res.Metrics["rf.cycle_overhead_pct"], res.Metrics["sim.cycles"])
	}
}

// appendRecord appends one record to an -out file.
func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads every record in a file, or in every file of a
// directory, that -out wrote.
func readRecords(path string) ([]record, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
		sort.Strings(files)
	}
	var recs []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
		for n := 1; sc.Scan(); n++ {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", f, n, err)
			}
			if r.Workload == "" {
				return nil, fmt.Errorf("%s:%d: not a pilotbench record", f, n)
			}
			recs = append(recs, r)
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
	}
	if len(recs) == 0 {
		return nil, errors.New(path + ": no pilotbench records")
	}
	return recs, nil
}
