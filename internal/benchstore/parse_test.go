package benchstore

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: pilotrf
cpu: some cpu
BenchmarkFigure11_DynamicEnergy-8   	       1	123456789 ns/op	        53.70 saving-pct(paper:54)	        47.10 ntv-saving-pct(paper:47)
BenchmarkLeakageSavings   	    5000	    250000 ns/op	        39.00 saving-pct(paper:39)
PASS
ok  	pilotrf	4.2s
`

func TestParseLine(t *testing.T) {
	b, ok := ParseLine("BenchmarkFigure11_DynamicEnergy-8   	       1	123456789 ns/op	        53.70 saving-pct(paper:54)")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if b.Name != "BenchmarkFigure11_DynamicEnergy" || b.Procs != 8 {
		t.Errorf("name/procs = %q/%d", b.Name, b.Procs)
	}
	if b.Iterations != 1 || b.NsPerOp != 123456789 {
		t.Errorf("iterations/ns = %d/%v", b.Iterations, b.NsPerOp)
	}
	if got := b.Metrics["saving-pct(paper:54)"]; got != 53.70 {
		t.Errorf("metric = %v, want 53.70", got)
	}

	for _, line := range []string{"PASS", "ok  \tpilotrf\t4.2s", "goos: linux", ""} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("non-benchmark line %q parsed as benchmark", line)
		}
	}
}

func TestParse(t *testing.T) {
	bs, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(bs))
	}
	if bs[1].Name != "BenchmarkLeakageSavings" || bs[1].Procs != 1 {
		t.Errorf("second benchmark = %+v", bs[1])
	}
	if got := bs[1].Metrics["saving-pct(paper:39)"]; got != 39 {
		t.Errorf("metric = %v, want 39", got)
	}
}

// TestParseLineMalformed covers the parser's reject paths: benchmark
// lines with unparseable numbers must be dropped, not mis-parsed.
func TestParseLineMalformed(t *testing.T) {
	cases := []struct {
		name, line string
	}{
		{"non-numeric iterations", "BenchmarkX abc 100 ns/op"},
		{"non-numeric metric value", "BenchmarkX 1 oops ns/op"},
		{"non-numeric later metric", "BenchmarkX 1 100 ns/op bad saving-pct"},
		{"name only", "BenchmarkX"},
		{"empty", ""},
		{"not a benchmark", "ok  \tpilotrf\t4.2s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if b, ok := ParseLine(tc.line); ok {
				t.Fatalf("malformed line parsed as %+v", b)
			}
		})
	}
}

// TestParseLineTruncated: a result line cut off mid-pair keeps the
// pairs before the cut (go test output is flushed line-buffered, so a
// trailing odd field means the unit was lost, not the value).
func TestParseLineTruncated(t *testing.T) {
	b, ok := ParseLine("BenchmarkX 2 100 ns/op 53.7")
	if !ok {
		t.Fatal("truncated line rejected entirely")
	}
	if b.NsPerOp != 100 || b.Iterations != 2 {
		t.Errorf("parsed %+v", b)
	}
	if len(b.Metrics) != 0 {
		t.Errorf("dangling value invented a metric: %v", b.Metrics)
	}
}

// TestParseNegativeProcsSuffix: a trailing -0 or -(-1) must not be
// treated as a GOMAXPROCS suffix.
func TestParseProcsSuffixEdgeCases(t *testing.T) {
	b, ok := ParseLine("BenchmarkX-0 1 100 ns/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if b.Name != "BenchmarkX-0" || b.Procs != 1 {
		t.Errorf("(-0 suffix) name/procs = %q/%d", b.Name, b.Procs)
	}
	b, ok = ParseLine("Benchmark-8 1 100 ns/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if b.Procs != 8 {
		t.Errorf("(-8 suffix) procs = %d, want 8", b.Procs)
	}
}

// TestParseOverlongLine: a line past the scanner's 1 MiB cap must
// surface as an error, not as silently truncated output.
func TestParseOverlongLine(t *testing.T) {
	long := "BenchmarkX 1 100 ns/op " + strings.Repeat("x", 2<<20) + "\n"
	if _, err := Parse(strings.NewReader(long)); err == nil {
		t.Fatal("2 MiB line parsed without error")
	}
}

// TestParseSkipsGarbageBetweenResults: interleaved non-benchmark noise
// (build output, t.Log lines) must not derail the surrounding results.
func TestParseSkipsGarbageBetweenResults(t *testing.T) {
	input := "BenchmarkA 1 100 ns/op\n" +
		"some stray log line\n" +
		"BenchmarkB notanumber 100 ns/op\n" + // malformed: dropped
		"BenchmarkC 3 50 ns/op 1.5 cycles\n"
	bs, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 || bs[0].Name != "BenchmarkA" || bs[1].Name != "BenchmarkC" {
		t.Fatalf("parsed %+v", bs)
	}
	if bs[1].Metrics["cycles"] != 1.5 {
		t.Errorf("metrics = %v", bs[1].Metrics)
	}
}
