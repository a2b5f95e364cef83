package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"pilotrf/internal/flightrec"
	"pilotrf/internal/perfscope"
)

// TestCombinedExporters drives the combined -trace-out/-energy-out/
// -record-out path end to end on one small benchmark: all three files
// must exist and be non-empty, and the recording must parse.
func TestCombinedExporters(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	energy := filepath.Join(dir, "energy.csv")
	record := filepath.Join(dir, "run.ndjson")

	var out bytes.Buffer
	err := run([]string{
		"-bench", "sgemm", "-scale", "0.1", "-sms", "1",
		"-trace-out", trace, "-energy-out", energy,
		"-record-out", record, "-record-every", "32",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []string{trace, energy, record} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	log, err := flightrec.ReadFile(record)
	if err != nil {
		t.Fatalf("recording does not parse: %v", err)
	}
	if len(log.Events) == 0 || len(log.Checksums()) == 0 {
		t.Fatalf("recording has %d events, %d checksums", len(log.Events), len(log.Checksums()))
	}
	if !strings.Contains(out.String(), "sgemm") {
		t.Errorf("stdout missing benchmark row for sgemm:\n%s", out.String())
	}
}

// TestBadOutputPathLeavesNoPartialFiles: when one output path is
// invalid, no sibling output may be left behind (the pre-fix behaviour
// created earlier files before failing on the later one).
func TestBadOutputPathLeavesNoPartialFiles(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	bad := filepath.Join(dir, "missing-subdir", "energy.csv")

	var out bytes.Buffer
	err := run([]string{
		"-bench", "sgemm", "-scale", "0.1", "-sms", "1",
		"-trace-out", trace, "-energy-out", bad,
	}, &out)
	if err == nil {
		t.Fatal("run succeeded with an uncreatable output path")
	}
	if _, statErr := os.Stat(trace); !os.IsNotExist(statErr) {
		t.Errorf("partial %s left behind (stat err: %v)", trace, statErr)
	}
}

// TestBadFlagCreatesNoFiles: flag validation failures must fire before
// any output file is created.
func TestBadFlagCreatesNoFiles(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	err := run([]string{"-design", "bogus", "-trace-out", trace}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown design") {
		t.Fatalf("err = %v", err)
	}
	if _, statErr := os.Stat(trace); !os.IsNotExist(statErr) {
		t.Errorf("%s created despite bad -design", trace)
	}
}

// TestRecordThenReplayCheck exercises the full record → replay-check
// loop through the CLI.
func TestRecordThenReplayCheck(t *testing.T) {
	dir := t.TempDir()
	record := filepath.Join(dir, "run.ndjson")
	base := []string{"-bench", "sgemm", "-scale", "0.1", "-sms", "1"}

	var out bytes.Buffer
	if err := run(append(base[:len(base):len(base)], "-record-out", record), &out); err != nil {
		t.Fatalf("record: %v", err)
	}
	out.Reset()
	if err := run(append(base[:len(base):len(base)], "-replay-check", record), &out); err != nil {
		t.Fatalf("replay-check: %v", err)
	}
	if !strings.Contains(out.String(), "replay-check:") {
		t.Errorf("no replay verdict printed:\n%s", out.String())
	}

	// A different scheduler must fail verification.
	err := run(append(base[:len(base):len(base)], "-sched", "lrr", "-replay-check", record), &out)
	if err == nil || !strings.Contains(err.Error(), "flightrec") {
		t.Fatalf("mismatched replay err = %v", err)
	}
}

// TestRecordAndReplayAreExclusive: the two sinks cannot share a run.
func TestRecordAndReplayAreExclusive(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-record-out", "a.ndjson", "-replay-check", "b.ndjson"}, &out)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v", err)
	}
}

// TestFaultFlags: -fault-rate wires the injector and prints outcome
// counters; a bad -protect is a usage error before any file is created.
func TestFaultFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-bench", "sgemm", "-scale", "0.1", "-sms", "1",
		"-fault-rate", "2e-11", "-fault-seed", "7", "-protect", "secded",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "faults[") {
		t.Errorf("no fault counters printed:\n%s", out.String())
	}
	if err := run([]string{"-protect", "chipkill"}, &out); err == nil {
		t.Error("unknown -protect accepted")
	}
	if err := run([]string{"-fault-rate", "-2"}, &out); err == nil {
		t.Error("negative -fault-rate accepted")
	}
}

// TestInterruptFlushesAndExits3 drives the built binary: SIGINT during
// the benchmark sweep must stop at the next benchmark boundary, still
// flush the requested outputs, and exit with the distinct code 3.
func TestInterruptFlushesAndExits3(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal delivery")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pilotsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pilotsim: %v\n%s", err, out)
	}

	metrics := filepath.Join(dir, "metrics.csv")
	// Scale 0.5 runs every benchmark for several seconds; the signal
	// lands long before the sweep can finish.
	cmd := exec.Command(bin, "-scale", "0.5", "-sms", "1", "-metrics-out", metrics)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if code := cmd.ProcessState.ExitCode(); code != 3 {
		t.Fatalf("exit code = %d (err %v), want 3\nstdout:\n%s\nstderr:\n%s",
			code, err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr missing interrupt notice:\n%s", stderr.String())
	}
	st, statErr := os.Stat(metrics)
	if statErr != nil {
		t.Fatalf("metrics CSV not flushed: %v", statErr)
	}
	if st.Size() == 0 {
		t.Error("metrics CSV flushed empty")
	}
}

// TestParallelByteIdentical runs the same multi-benchmark sweep
// sequentially and on a 4-worker pool; the stdout bytes must match
// exactly (the parallel path merges per-benchmark buffers in canonical
// order).
func TestParallelByteIdentical(t *testing.T) {
	args := []string{"-bench", "", "-scale", "0.05", "-sms", "1", "-v",
		"-fault-rate", "2e-11", "-protect", "secded"}
	var seq, par bytes.Buffer
	if err := run(append([]string{"-parallel", "1"}, args...), &seq); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if err := run(append([]string{"-parallel", "4"}, args...), &par); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if seq.String() != par.String() {
		t.Fatalf("parallel output differs from sequential:\n--- seq\n%s\n--- par\n%s",
			seq.String(), par.String())
	}
	if n := strings.Count(par.String(), "\n"); n < 10 {
		t.Fatalf("suspiciously short sweep output (%d lines):\n%s", n, par.String())
	}
}

// TestParallelRejectsSharedObservers: -parallel > 1 combined with an
// exporter that tees one stream across benchmarks is a usage error, and
// no output file may be left behind.
func TestParallelRejectsSharedObservers(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	err := run([]string{"-bench", "sgemm", "-parallel", "2", "-trace-out", trace}, &out)
	if err == nil {
		t.Fatal("parallel run with -trace-out succeeded")
	}
	if _, ok := err.(usageError); !ok {
		t.Fatalf("error %v is %T, want usageError", err, err)
	}
	if _, statErr := os.Stat(trace); !os.IsNotExist(statErr) {
		t.Errorf("rejected run left %s behind", trace)
	}
	if err := run([]string{"-parallel", "0"}, &out); err == nil {
		t.Fatal("-parallel 0 accepted")
	}
}

// TestPerfOut: -perf-out writes a valid pilotrf-perfscope/v2 report
// with one entry per benchmark, and -parallel rejects it like the other
// shared observers.
func TestPerfOut(t *testing.T) {
	dir := t.TempDir()
	perf := filepath.Join(dir, "perf.json")
	var out bytes.Buffer
	if err := run([]string{"-bench", "sgemm", "-sms", "1", "-scale", "0.1", "-perf-out", perf}, &out); err != nil {
		t.Fatal(err)
	}
	r, err := perfscope.ReadFile(perf)
	if err != nil {
		t.Fatalf("perf report does not validate: %v", err)
	}
	if len(r.Entries) != 1 || r.Entries[0].Workload != "sgemm" {
		t.Fatalf("report entries %+v, want one sgemm row", r.Entries)
	}
	e := r.Entries[0]
	if e.Design != "part-adaptive" {
		t.Errorf("entry design %q, want the default part-adaptive", e.Design)
	}
	if e.Census.SMCycles == 0 {
		t.Error("census observed no cycles")
	}
	if e.Wall == nil || e.Wall.TotalNS <= 0 {
		t.Error("pilotsim -perf-out should time phases (wall clock on)")
	}

	rejected := filepath.Join(dir, "rejected.json")
	err = run([]string{"-bench", "sgemm", "-parallel", "2", "-perf-out", rejected}, &out)
	if err == nil {
		t.Fatal("-parallel 2 with -perf-out accepted")
	}
	if _, ok := err.(usageError); !ok {
		t.Fatalf("error %v is %T, want usageError", err, err)
	}
	if _, statErr := os.Stat(rejected); !os.IsNotExist(statErr) {
		t.Errorf("rejected run left %s behind", rejected)
	}
}
