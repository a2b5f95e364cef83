package benchstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testHost() Host {
	return Host{GOOS: "linux", GOARCH: "amd64", NumCPU: 4, GoVersion: "go1.24.0"}
}

func testRecord(label string, t int64) Record {
	return Record{
		Label:    label,
		Commit:   "abc123",
		TimeUnix: t,
		Host:     testHost(),
		Benchmarks: []BenchmarkSamples{
			{Name: "BenchmarkB", NsPerOp: []float64{200, 210}, Metrics: map[string]float64{"cycles": 9000}},
			{Name: "BenchmarkA", NsPerOp: []float64{100, 110}, Metrics: map[string]float64{"saving-pct": 53.7, "Mcycles/s": 0.15}},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	h := History{Records: []Record{testRecord("PR2", 100), testRecord("PR3", 200)}}
	var buf bytes.Buffer
	if err := WriteHistory(&buf, h); err != nil {
		t.Fatal(err)
	}
	back, err := ReadHistory(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read back: %v\n%s", err, buf.String())
	}
	if len(back.Records) != 2 {
		t.Fatalf("got %d records", len(back.Records))
	}
	// Canonical: benchmarks sorted by name.
	if got := back.Records[0].Benchmarks[0].Name; got != "BenchmarkA" {
		t.Errorf("first benchmark = %q, want BenchmarkA (canonical order)", got)
	}
	// Write→read→write is byte-stable.
	var buf2 bytes.Buffer
	if err := WriteHistory(&buf2, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("round trip not byte-stable")
	}
	if r, ok := back.ByLabel("PR3"); !ok || r.TimeUnix != 200 {
		t.Errorf("ByLabel(PR3) = %+v, %v", r, ok)
	}
	if got := back.Records[0].Samples(); got != 2 {
		t.Errorf("Samples() = %d, want 2", got)
	}
}

// valid returns the serialized form of a small valid history to mutate.
func valid(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteHistory(&buf, History{Records: []Record{testRecord("PR2", 100)}}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestReadRejections(t *testing.T) {
	base := valid(t)
	lines := strings.SplitAfter(strings.TrimSuffix(base, "\n"), "\n")
	recordLine := lines[len(lines)-1]

	cases := map[string]struct {
		input   string
		wantSub string
	}{
		"empty":            {"", "missing"},
		"wrong schema":     {`{"schema":"pilotrf-benchhistory/v0"}` + "\n", "schema"},
		"truncated record": {lines[0] + recordLine[:len(recordLine)/2], "line 2"},
		"bad json":         {lines[0] + "{nope\n", "line 2"},
		"empty label":      {lines[0] + strings.Replace(recordLine, `"label":"PR2"`, `"label":""`, 1), "empty label"},
		"negative sample":  {lines[0] + strings.Replace(recordLine, "[100,110]", "[100,-110]", 1), "non-negative"},
		"negative time":    {lines[0] + strings.Replace(recordLine, `"time_unix":100`, `"time_unix":-5`, 1), "time_unix"},
		"duplicate label":  {base + recordLine, "duplicate run label"},
		"no benchmarks":    {lines[0] + `{"label":"x","time_unix":1,"host":{"goos":"l","goarch":"a","num_cpu":1,"go_version":"g"},"benchmarks":[]}` + "\n", "no benchmarks"},
		"ragged samples": {lines[0] + `{"label":"x","time_unix":1,"host":{"goos":"l","goarch":"a","num_cpu":1,"go_version":"g"},` +
			`"benchmarks":[{"name":"A","ns_per_op":[1,2]},{"name":"B","ns_per_op":[1]}]}` + "\n", "samples"},
		"dup benchmark": {lines[0] + `{"label":"x","time_unix":1,"host":{"goos":"l","goarch":"a","num_cpu":1,"go_version":"g"},` +
			`"benchmarks":[{"name":"A","ns_per_op":[1]},{"name":"A","ns_per_op":[2]}]}` + "\n", "duplicate benchmark"},
		"bad host": {lines[0] + `{"label":"x","time_unix":1,"host":{"goos":"","goarch":"a","num_cpu":1,"go_version":"g"},` +
			`"benchmarks":[{"name":"A","ns_per_op":[1]}]}` + "\n", "host"},
		"nan metric": {lines[0] + `{"label":"x","time_unix":1,"host":{"goos":"l","goarch":"a","num_cpu":1,"go_version":"g"},` +
			`"benchmarks":[{"name":"A","ns_per_op":[1],"metrics":{"m":1e999}}]}` + "\n", "metric"},
	}
	for name, tc := range cases {
		_, err := ReadHistory(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantSub)
		}
	}
}

func TestAppendRecordFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.ndjson")
	if err := AppendRecordFile(path, testRecord("PR2", 100)); err != nil {
		t.Fatal(err)
	}
	if err := AppendRecordFile(path, testRecord("PR3", 200)); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHistoryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Labels(); len(got) != 2 || got[0] != "PR2" || got[1] != "PR3" {
		t.Fatalf("labels = %v", got)
	}

	// Appending a duplicate label must fail and leave the file intact.
	before, _ := os.ReadFile(path)
	if err := AppendRecordFile(path, testRecord("PR2", 300)); err == nil {
		t.Fatal("duplicate label append accepted")
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Error("failed append modified the file")
	}

	// Appending to a corrupt history must refuse.
	bad := filepath.Join(t.TempDir(), "bad.ndjson")
	if err := os.WriteFile(bad, []byte("{nope\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendRecordFile(bad, testRecord("PR2", 1)); err == nil {
		t.Fatal("append to corrupt history accepted")
	}

	// Append must produce the same bytes as a canonical whole-file write.
	var canon bytes.Buffer
	if err := WriteHistory(&canon, h); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, canon.Bytes()) {
		t.Errorf("appended file differs from canonical write:\n%s\nvs\n%s", before, canon.Bytes())
	}
}

func TestAppendValidatesRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.ndjson")
	bad := testRecord("PR2", 100)
	bad.Benchmarks[0].NsPerOp = []float64{-1, 2}
	if err := AppendRecordFile(path, bad); err == nil {
		t.Fatal("negative sample accepted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("failed append created the file")
	}
}

func bench(name string, ns float64, metrics map[string]float64) Benchmark {
	return Benchmark{Name: name, Procs: 1, Iterations: 1, NsPerOp: ns, Metrics: metrics}
}

func TestMergeSamples(t *testing.T) {
	runs := [][]Benchmark{
		{bench("BenchmarkA", 100, map[string]float64{"cycles": 500, "Mcycles/s": 0.15})},
		{bench("BenchmarkA", 140, map[string]float64{"cycles": 500, "Mcycles/s": 0.11})},
		{bench("BenchmarkA", 120, map[string]float64{"cycles": 500, "Mcycles/s": 0.13})},
	}
	rec, err := MergeSamples("PR8", "deadbeef", 42, testHost(), runs)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	b := rec.Benchmarks[0]
	if want := []float64{100, 140, 120}; len(b.NsPerOp) != 3 || b.NsPerOp[0] != want[0] || b.NsPerOp[1] != want[1] || b.NsPerOp[2] != want[2] {
		t.Errorf("ns/op vector = %v, want %v", b.NsPerOp, want)
	}
	// Rate metric keeps the first sample's value; deterministic one is kept.
	if b.Metrics["Mcycles/s"] != 0.15 || b.Metrics["cycles"] != 500 {
		t.Errorf("metrics = %v", b.Metrics)
	}
}

func TestMergeSamplesDetectsMetricVariance(t *testing.T) {
	runs := [][]Benchmark{
		{bench("BenchmarkA", 100, map[string]float64{"cycles": 500})},
		{bench("BenchmarkA", 110, map[string]float64{"cycles": 501})},
	}
	_, err := MergeSamples("PR8", "", 0, testHost(), runs)
	var ve *VarianceError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want VarianceError", err)
	}
	if ve.Benchmark != "BenchmarkA" || ve.Metric != "cycles" {
		t.Errorf("variance = %+v", ve)
	}
	if !strings.Contains(ve.Error(), "500 vs 501") {
		t.Errorf("message %q lacks values", ve.Error())
	}
}

func TestMergeSamplesDetectsSetVariance(t *testing.T) {
	// Missing benchmark in sample 2.
	_, err := MergeSamples("x", "", 0, testHost(), [][]Benchmark{
		{bench("BenchmarkA", 1, nil), bench("BenchmarkB", 2, nil)},
		{bench("BenchmarkA", 1, nil)},
	})
	if err == nil {
		t.Error("missing benchmark accepted")
	}
	// Extra benchmark in sample 2.
	_, err = MergeSamples("x", "", 0, testHost(), [][]Benchmark{
		{bench("BenchmarkA", 1, nil)},
		{bench("BenchmarkA", 1, nil), bench("BenchmarkB", 2, nil)},
	})
	if err == nil {
		t.Error("extra benchmark accepted")
	}
	// Metric appearing only in sample 2.
	_, err = MergeSamples("x", "", 0, testHost(), [][]Benchmark{
		{bench("BenchmarkA", 1, nil)},
		{bench("BenchmarkA", 1, map[string]float64{"cycles": 5})},
	})
	if err == nil {
		t.Error("gained metric accepted")
	}
	// Metric disappearing in sample 2.
	_, err = MergeSamples("x", "", 0, testHost(), [][]Benchmark{
		{bench("BenchmarkA", 1, map[string]float64{"cycles": 5})},
		{bench("BenchmarkA", 1, nil)},
	})
	if err == nil {
		t.Error("lost metric accepted")
	}
	// Duplicate names within one sample.
	_, err = MergeSamples("x", "", 0, testHost(), [][]Benchmark{
		{bench("BenchmarkA", 1, nil), bench("BenchmarkA", 2, nil)},
	})
	if err == nil {
		t.Error("duplicate benchmark accepted")
	}
	if _, err := MergeSamples("x", "", 0, testHost(), nil); err == nil {
		t.Error("zero samples accepted")
	}
}
