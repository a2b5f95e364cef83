package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pilotrf/internal/benchstore"
)

func host() benchstore.Host {
	return benchstore.Host{GOOS: "linux", GOARCH: "amd64", NumCPU: 1, GoVersion: "go1.24.0"}
}

func record(label string, t int64, benches ...benchstore.BenchmarkSamples) benchstore.Record {
	return benchstore.Record{Label: label, Commit: "c0ffee", TimeUnix: t, Host: host(), Benchmarks: benches}
}

func writeHistory(t *testing.T, recs ...benchstore.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hist.ndjson")
	if err := benchstore.WriteHistoryFile(path, benchstore.History{Records: recs}); err != nil {
		t.Fatal(err)
	}
	return path
}

var (
	baseSamples = []float64{100, 101, 99, 100.5, 99.5}
	slowSamples = []float64{200, 202, 198, 201, 199}
)

// TestGateFlags2xSlowdownAt5Samples is the acceptance case: a
// synthetic 2x ns/op slowdown at 5 samples must gate (exit 1).
func TestGateFlags2xSlowdownAt5Samples(t *testing.T) {
	hist := writeHistory(t,
		record("old", 1, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: baseSamples,
			Metrics: map[string]float64{"cycles": 500}}),
		record("new", 2, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: slowSamples,
			Metrics: map[string]float64{"cycles": 500}}),
	)
	var out bytes.Buffer
	code := run([]string{"gate", "-history", hist, "old", "new"}, &out)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "SLOWER") {
		t.Errorf("output lacks SLOWER verdict:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1 violations") {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestGateIdenticalSampleSetsPass: re-recording the exact same sample
// set must not be flagged.
func TestGateIdenticalSampleSetsPass(t *testing.T) {
	mk := func(label string, ts int64) benchstore.Record {
		return record(label, ts, benchstore.BenchmarkSamples{Name: "BenchmarkA",
			NsPerOp: baseSamples, Metrics: map[string]float64{"cycles": 500}})
	}
	hist := writeHistory(t, mk("r1", 1), mk("r2", 2))
	var out bytes.Buffer
	if code := run([]string{"gate", "-history", hist, "r1", "r2"}, &out); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "0 violations") {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestGateDeterministic: gate output is byte-identical across
// invocations given fixed history bytes.
func TestGateDeterministic(t *testing.T) {
	hist := writeHistory(t,
		record("old", 1, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: baseSamples,
			Metrics: map[string]float64{"cycles": 500, "saving-pct": 53.7}}),
		record("new", 2, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: slowSamples,
			Metrics: map[string]float64{"cycles": 501, "saving-pct": 53.7}}),
	)
	var a, b bytes.Buffer
	codeA := run([]string{"gate", "-v", "-history", hist, "old", "new"}, &a)
	codeB := run([]string{"gate", "-v", "-history", hist, "old", "new"}, &b)
	if codeA != codeB {
		t.Fatalf("exit codes differ: %d vs %d", codeA, codeB)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("gate output not byte-identical:\n--- a\n%s\n--- b\n%s", a.String(), b.String())
	}
}

// TestGateNewMetricsSorted: a benchmark that gains several metrics
// prints their NEW lines in key order, so gate's output is the same
// bytes on every run.
func TestGateNewMetricsSorted(t *testing.T) {
	hist := writeHistory(t,
		record("old", 1, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: baseSamples,
			Metrics: map[string]float64{"cycles": 500}}),
		record("new", 2, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: baseSamples,
			Metrics: map[string]float64{"cycles": 500, "frees/op": 3, "allocs/op": 1, "B/op": 2}}),
	)
	outs := map[string]bool{}
	var out bytes.Buffer
	for i := 0; i < 20; i++ {
		out.Reset()
		if code := run([]string{"gate", "-history", hist, "old", "new"}, &out); code != 1 {
			t.Fatalf("exit = %d, want 1\n%s", code, out.String())
		}
		outs[out.String()] = true
	}
	if len(outs) != 1 {
		t.Fatalf("%d distinct outputs in 20 runs of gate", len(outs))
	}
	var added []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "NEW (absent") {
			added = append(added, strings.Fields(line)[1])
		}
	}
	if len(added) != 3 || !sort.StringsAreSorted(added) {
		t.Errorf("NEW metrics %q, want the three keys sorted:\n%s", added, out.String())
	}
}

// TestGateMetricMismatch: deterministic metrics gate on exact bit
// equality, with the 0 -> nonzero case spelled out instead of an
// infinity artifact.
func TestGateMetricMismatch(t *testing.T) {
	hist := writeHistory(t,
		record("old", 1, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: []float64{100},
			Metrics: map[string]float64{"cycles": 500, "faults": 0}}),
		record("new", 2, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: []float64{100},
			Metrics: map[string]float64{"cycles": 500.0001, "faults": 3}}),
	)
	var out bytes.Buffer
	if code := run([]string{"gate", "-history", hist, "old", "new"}, &out); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "MISMATCH") || !strings.Contains(s, "2 violations") {
		t.Errorf("output:\n%s", s)
	}
	if !strings.Contains(s, "new from zero") {
		t.Errorf("0 -> nonzero not spelled out:\n%s", s)
	}
	if strings.Contains(s, "Inf") {
		t.Errorf("infinity artifact in output:\n%s", s)
	}
}

// TestGateHostMismatchInformational: differing host fingerprints demote
// wall-clock verdicts to informational, but metric gating still bites.
func TestGateHostMismatchInformational(t *testing.T) {
	other := record("new", 2, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: slowSamples,
		Metrics: map[string]float64{"cycles": 500}})
	other.Host.NumCPU = 64
	hist := writeHistory(t,
		record("old", 1, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: baseSamples,
			Metrics: map[string]float64{"cycles": 500}}),
		other,
	)
	var out bytes.Buffer
	if code := run([]string{"gate", "-history", hist, "old", "new"}, &out); code != 0 {
		t.Fatalf("exit = %d, want 0 (cross-host wall-clock must not gate)\n%s", code, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "host fingerprints differ") || !strings.Contains(s, "informational") {
		t.Errorf("output:\n%s", s)
	}
}

// TestGateUnderpoweredInformational: 1v1 samples cannot reach
// significance; gate must say so and not flag wall clock.
func TestGateUnderpoweredInformational(t *testing.T) {
	hist := writeHistory(t,
		record("old", 1, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: []float64{100}}),
		record("new", 2, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: []float64{900}}),
	)
	var out bytes.Buffer
	if code := run([]string{"gate", "-history", hist, "old", "new"}, &out); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "cannot reach alpha") {
		t.Errorf("underpowered note missing:\n%s", out.String())
	}
}

func TestGateMissingBenchmarkFails(t *testing.T) {
	hist := writeHistory(t,
		record("old", 1,
			benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: []float64{100}},
			benchstore.BenchmarkSamples{Name: "BenchmarkB", NsPerOp: []float64{100}}),
		record("new", 2, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: []float64{100}}),
	)
	var out bytes.Buffer
	if code := run([]string{"gate", "-history", hist, "old", "new"}, &out); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Errorf("output:\n%s", out.String())
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	var out bytes.Buffer
	for name, args := range map[string][]string{
		"no args":         {},
		"unknown sub":     {"frobnicate"},
		"gate no history": {"gate", "a", "b"},
		"gate one label":  {"gate", "-history", "x.ndjson", "a"},
		"gate bad alpha":  {"gate", "-history", "x.ndjson", "-alpha", "1.5", "a", "b"},
		"gate bad effect": {"gate", "-history", "x.ndjson", "-min-effect", "-1", "a", "b"},
		"record no label": {"record", "-history", "x.ndjson"},
		"report no out":   {"report", "-history", "x.ndjson"},
	} {
		if code := run(args, &out); code != 2 {
			t.Errorf("%s: exit = %d, want 2", name, code)
		}
	}
	// Unknown label and unreadable history are read errors, not crashes.
	hist := writeHistory(t, record("old", 1,
		benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: []float64{1}}))
	if code := run([]string{"gate", "-history", hist, "old", "nope"}, &out); code != 2 {
		t.Errorf("unknown label: exit = %d, want 2", code)
	}
	if code := run([]string{"gate", "-history", "/no/such.ndjson", "a", "b"}, &out); code != 2 {
		t.Errorf("missing history: exit = %d, want 2", code)
	}
}

// fakeHarness writes a script that emits go-test bench output; each
// invocation bumps a counter so ns/op varies while metrics stay fixed
// (or vary, when varyMetric is set — the recording violation case).
func fakeHarness(t *testing.T, dir string, varyMetric bool) string {
	t.Helper()
	metric := `500`
	if varyMetric {
		metric = `$((500 + n))`
	}
	script := `#!/bin/sh
count="` + dir + `/count"
n=$(cat "$count" 2>/dev/null || echo 0)
n=$((n + 1))
echo "$n" > "$count"
echo "goos: linux"
echo "BenchmarkA 	       1	$((1000 + n * 10)) ns/op	 ` + metric + ` cycles	 0.15 Mcycles/s"
echo "PASS"
`
	path := filepath.Join(dir, "fake.sh")
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRecordAppendsMultiSampleRecord(t *testing.T) {
	dir := t.TempDir()
	script := fakeHarness(t, dir, false)
	hist := filepath.Join(dir, "hist.ndjson")
	var out bytes.Buffer
	code := run([]string{"record", "-history", hist, "-label", "PR8", "-samples", "3",
		"-commit", "deadbeef", "-time-unix", "42", "-harness-cmd", "sh " + script}, &out)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	h, err := benchstore.ReadHistoryFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := h.ByLabel("PR8")
	if !ok || rec.Samples() != 3 || rec.Commit != "deadbeef" || rec.TimeUnix != 42 {
		t.Fatalf("record = %+v", rec)
	}
	b := rec.Benchmarks[0]
	if b.Name != "BenchmarkA" || b.NsPerOp[0] != 1010 || b.NsPerOp[2] != 1030 {
		t.Errorf("samples = %+v", b)
	}
	if b.Metrics["cycles"] != 500 {
		t.Errorf("metrics = %v", b.Metrics)
	}
}

// TestRecordMetricVarianceIsViolation: a deterministic metric that
// varies across samples aborts the recording with exit 1.
func TestRecordMetricVarianceIsViolation(t *testing.T) {
	dir := t.TempDir()
	script := fakeHarness(t, dir, true)
	hist := filepath.Join(dir, "hist.ndjson")
	var out bytes.Buffer
	code := run([]string{"record", "-history", hist, "-label", "PR8", "-samples", "2",
		"-harness-cmd", "sh " + script}, &out)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, out.String())
	}
	if _, err := os.Stat(hist); !os.IsNotExist(err) {
		t.Error("violating run was recorded anyway")
	}
}

// TestRecordRefusesBeforeSampling: a taken label or an unreadable
// history exits 2 before the harness runs even once.
func TestRecordRefusesBeforeSampling(t *testing.T) {
	taken := writeHistory(t, record("PR8", 1,
		benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: []float64{1}}))
	garbage := filepath.Join(t.TempDir(), "garbage.ndjson")
	if err := os.WriteFile(garbage, []byte("{nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, hist := range map[string]string{"taken label": taken, "unreadable history": garbage} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			script := fakeHarness(t, dir, false)
			var out bytes.Buffer
			code := run([]string{"record", "-history", hist, "-label", "PR8", "-samples", "3",
				"-harness-cmd", "sh " + script}, &out)
			if code != 2 {
				t.Fatalf("exit = %d, want 2\n%s", code, out.String())
			}
			if _, err := os.Stat(filepath.Join(dir, "count")); !os.IsNotExist(err) {
				t.Error("harness ran before the history was checked")
			}
		})
	}
}

// TestRecordHarnessFailures: a harness that exits nonzero, or prints
// no benchmark line, aborts the recording with exit 2 and writes
// nothing.
func TestRecordHarnessFailures(t *testing.T) {
	for name, body := range map[string]string{
		"exit 1 after a result": "echo 'BenchmarkA 1 1000 ns/op 500 cycles'\nexit 1\n",
		"no benchmark lines":    "echo PASS\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			script := filepath.Join(dir, "harness.sh")
			if err := os.WriteFile(script, []byte("#!/bin/sh\n"+body), 0o755); err != nil {
				t.Fatal(err)
			}
			hist := filepath.Join(dir, "hist.ndjson")
			var out bytes.Buffer
			code := run([]string{"record", "-history", hist, "-label", "X", "-samples", "1",
				"-harness-cmd", "sh " + script}, &out)
			if code != 2 {
				t.Fatalf("exit = %d, want 2\n%s", code, out.String())
			}
			if _, err := os.Stat(hist); !os.IsNotExist(err) {
				t.Error("failed harness run was recorded anyway")
			}
		})
	}
}

// TestReportDeterministicAndAnnotated: report output (markdown and
// every SVG) is byte-identical across invocations, and the synthetic
// regression is annotated.
func TestReportDeterministicAndAnnotated(t *testing.T) {
	hist := writeHistory(t,
		record("old", 100, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: baseSamples,
			Metrics: map[string]float64{"cycles": 500}}),
		record("new", 200, benchstore.BenchmarkSamples{Name: "BenchmarkA", NsPerOp: slowSamples,
			Metrics: map[string]float64{"cycles": 501}}),
	)
	render := func(dir string) (string, string) {
		t.Helper()
		out := filepath.Join(dir, "REPORT.md")
		svg := filepath.Join(dir, "sparklines")
		var buf bytes.Buffer
		if code := run([]string{"report", "-history", hist, "-out", out, "-svg-dir", svg}, &buf); code != 0 {
			t.Fatalf("report: exit = %d\n%s", code, buf.String())
		}
		md, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		spark, err := os.ReadFile(filepath.Join(svg, "BenchmarkA.svg"))
		if err != nil {
			t.Fatal(err)
		}
		return string(md), string(spark)
	}
	md1, svg1 := render(t.TempDir())
	md2, svg2 := render(t.TempDir())
	if md1 != md2 {
		t.Error("report markdown not byte-identical across invocations")
	}
	if svg1 != svg2 {
		t.Error("sparkline SVG not byte-identical across invocations")
	}
	if !strings.Contains(md1, "⚠") || !strings.Contains(md1, "+100%") {
		t.Errorf("regression not annotated:\n%s", md1)
	}
	if !strings.Contains(md1, "`cycles`") && !strings.Contains(md1, "cycles: 500 -> 501") {
		t.Errorf("metric change not listed:\n%s", md1)
	}
	if !strings.Contains(svg1, "<svg") || !strings.Contains(svg1, "#d65f5f") {
		t.Errorf("sparkline missing regression marker:\n%s", svg1)
	}
	if !strings.Contains(md1, "sparklines/BenchmarkA.svg") {
		t.Errorf("sparkline not linked:\n%s", md1)
	}
}
