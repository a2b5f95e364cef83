// Package benchjson converts `go test -bench` text output into a
// machine-readable JSON report. The root bench_test.go harness reports
// every headline paper quantity via b.ReportMetric, so one parsed run
// is a complete scorecard snapshot; cmd/experiments -bench-json uses
// this package to regenerate BENCH_PR2.json.
package benchjson

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Schema identifies the JSON layout this package writes.
const Schema = "pilotrf-bench/v1"

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark function name without the -GOMAXPROCS
	// suffix (e.g. "BenchmarkFigure11_DynamicEnergy").
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when the line has none).
	Procs int `json:"procs"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the wall-clock cost per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every custom b.ReportMetric value keyed by its
	// unit string (e.g. "saving-pct(paper:54)" -> 53.7).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the full harness snapshot written as JSON.
type Report struct {
	// Schema is always the package Schema constant.
	Schema string `json:"schema"`
	// Command is the command line that produced the parsed output.
	Command string `json:"command"`
	// Benchmarks are the parsed result lines in output order.
	Benchmarks []Benchmark `json:"benchmarks"`
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

// NewReport wraps parsed benchmarks with the schema tag and the
// producing command line.
func NewReport(command string, benchmarks []Benchmark) Report {
	return Report{Schema: Schema, Command: command, Benchmarks: benchmarks}
}

// Write renders the report as indented JSON.
func (r Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Read parses a report written by Write, validating the schema tag.
func Read(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("benchjson: %w", err)
	}
	if rep.Schema != Schema {
		return Report{}, fmt.Errorf("benchjson: schema %q, want %q", rep.Schema, Schema)
	}
	return rep, nil
}

// Index maps a report's benchmarks by name, returning an error naming
// the first duplicate. Duplicate benchmark names would make one result
// silently win over the other in any by-name comparison, so consumers
// that gate on reports (the history store) must reject them.
func Index(r Report) (map[string]Benchmark, error) {
	m := make(map[string]Benchmark, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		if _, ok := m[b.Name]; ok {
			return nil, fmt.Errorf("benchjson: duplicate benchmark %q", b.Name)
		}
		m[b.Name] = b
	}
	return m, nil
}

// ReadFile loads a report from disk.
func ReadFile(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	rep, err := Read(f)
	if err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
