package benchstore

// The harness-output parser: turns `go test -bench` text into the
// per-sample benchmark lists MergeSamples folds into a Record. The root
// bench_test.go harness reports every headline paper quantity via
// b.ReportMetric, so one parsed pass is a complete scorecard sample.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark function name without the -GOMAXPROCS
	// suffix (e.g. "BenchmarkFigure11_DynamicEnergy").
	Name string
	// Procs is the GOMAXPROCS suffix (1 when the line has none).
	Procs int
	// Iterations is b.N for the reported run.
	Iterations int64
	// NsPerOp is the wall-clock cost per iteration.
	NsPerOp float64
	// Metrics holds every custom b.ReportMetric value keyed by its
	// unit string (e.g. "saving-pct(paper:54)" -> 53.7).
	Metrics map[string]float64
}

// ParseLine parses one `go test -bench` result line. The second return
// is false for non-benchmark lines (headers, PASS, ok, metadata).
func ParseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Procs: 1}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil && p > 0 {
			b.Procs = p
			b.Name = b.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		if unit := fields[i+1]; unit == "ns/op" {
			b.NsPerOp = v
		} else {
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// Parse reads `go test -bench` output and returns every benchmark line.
func Parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if b, ok := ParseLine(sc.Text()); ok {
			out = append(out, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// index maps one sample's benchmarks by name, returning an error naming
// the first duplicate: a duplicate would make one result silently win
// over the other in every by-name comparison.
func index(benches []Benchmark) (map[string]Benchmark, error) {
	m := make(map[string]Benchmark, len(benches))
	for _, b := range benches {
		if _, ok := m[b.Name]; ok {
			return nil, fmt.Errorf("duplicate benchmark %q", b.Name)
		}
		m[b.Name] = b
	}
	return m, nil
}
