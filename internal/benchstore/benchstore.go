// Package benchstore is the append-only performance history of the
// simulator itself: every recorded benchmark run becomes one NDJSON
// line in a pilotrf-benchhistory/v1 file, carrying the run label and
// commit, a host fingerprint, an injected timestamp, and — per
// benchmark — the full ns/op sample vector plus the deterministic
// metric map.
//
// The format follows the repo's other versioned NDJSON artifacts
// (flightrec, trace spans): a schema header line first, one record per
// line after it, a validating reader that returns structured errors and
// never panics, and a canonical writer whose output is byte-stable so
// diffs and gates are reproducible.
//
// Timestamps are injected by the caller, never read from the wall
// clock here: given fixed history bytes, everything downstream
// (cmd/benchwatch gate and report) is a pure function.
package benchstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

// Schema identifies the history format this package reads and writes.
const Schema = "pilotrf-benchhistory/v1"

// header is the first NDJSON line, carrying only the schema tag.
type header struct {
	Schema string `json:"schema"`
}

// Host fingerprints the machine a run was recorded on. Wall-clock
// numbers are only comparable within one fingerprint; gates refuse to
// pretend otherwise silently.
type Host struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
}

// CurrentHost fingerprints the running machine.
func CurrentHost() Host {
	return Host{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
}

// Equal reports whether two fingerprints describe the same environment.
func (h Host) Equal(o Host) bool { return h == o }

// String renders the fingerprint as "GOOS/GOARCH cpu=N goversion".
func (h Host) String() string {
	return fmt.Sprintf("%s/%s cpu=%d %s", h.GOOS, h.GOARCH, h.NumCPU, h.GoVersion)
}

// BenchmarkSamples is one benchmark's results across every sample of a
// run: the wall-clock vector, and the deterministic metrics that are
// required to be bit-identical across samples (variance in them is a
// recording violation, so a record stores one map, not one per sample).
type BenchmarkSamples struct {
	Name string `json:"name"`
	// NsPerOp holds one wall-clock measurement per sample, in
	// recording order.
	NsPerOp []float64 `json:"ns_per_op"`
	// Metrics holds the deterministic b.ReportMetric values. Rate
	// metrics (unit suffix "/s") are wall-clock in disguise and are
	// treated as informational by gates.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Record is one recorded run: the full bench suite, sampled one or
// more times.
type Record struct {
	// Label names the run, e.g. "PR8". Labels are unique within a
	// history file; gates address runs by label.
	Label string `json:"label"`
	// Commit is the git revision the run was built from, when known.
	Commit string `json:"commit,omitempty"`
	// TimeUnix is the caller-injected recording time (Unix seconds).
	TimeUnix int64 `json:"time_unix"`
	// Host fingerprints the recording machine.
	Host Host `json:"host"`
	// Source notes where a backfilled record came from: the PR2, PR3
	// and PR5 records carry "import:BENCH_PR<n>.json", the single-sample
	// snapshots they were converted from. Empty for recorded runs.
	Source string `json:"source,omitempty"`
	// Benchmarks are the per-benchmark sample sets, sorted by name by
	// the canonical writer.
	Benchmarks []BenchmarkSamples `json:"benchmarks"`
}

// Samples returns the number of ns/op samples in the record (every
// benchmark has the same count; Validate enforces it).
func (r Record) Samples() int {
	if len(r.Benchmarks) == 0 {
		return 0
	}
	return len(r.Benchmarks[0].NsPerOp)
}

// History is a parsed history file, records in file order.
type History struct {
	Records []Record
}

// ByLabel finds a record by its run label.
func (h History) ByLabel(label string) (Record, bool) {
	for _, r := range h.Records {
		if r.Label == label {
			return r, true
		}
	}
	return Record{}, false
}

// Labels returns the run labels in file (i.e. append) order.
func (h History) Labels() []string {
	out := make([]string, len(h.Records))
	for i, r := range h.Records {
		out[i] = r.Label
	}
	return out
}

// Validate checks the structural invariants of a single record.
func (r *Record) Validate() error {
	if r.Label == "" {
		return fmt.Errorf("record has empty label")
	}
	if r.TimeUnix < 0 {
		return fmt.Errorf("record %q: negative time_unix %d", r.Label, r.TimeUnix)
	}
	if r.Host.GOOS == "" || r.Host.GOARCH == "" || r.Host.GoVersion == "" || r.Host.NumCPU < 1 {
		return fmt.Errorf("record %q: incomplete host fingerprint %+v", r.Label, r.Host)
	}
	if len(r.Benchmarks) == 0 {
		return fmt.Errorf("record %q: no benchmarks", r.Label)
	}
	samples := len(r.Benchmarks[0].NsPerOp)
	seen := make(map[string]bool, len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("record %q: benchmark with empty name", r.Label)
		}
		if seen[b.Name] {
			return fmt.Errorf("record %q: duplicate benchmark %q", r.Label, b.Name)
		}
		seen[b.Name] = true
		if len(b.NsPerOp) == 0 {
			return fmt.Errorf("record %q: benchmark %q has no samples", r.Label, b.Name)
		}
		if len(b.NsPerOp) != samples {
			return fmt.Errorf("record %q: benchmark %q has %d samples, others have %d",
				r.Label, b.Name, len(b.NsPerOp), samples)
		}
		for i, v := range b.NsPerOp {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("record %q: benchmark %q sample %d is %v (want finite, non-negative)",
					r.Label, b.Name, i, v)
			}
		}
		for k, v := range b.Metrics {
			if k == "" {
				return fmt.Errorf("record %q: benchmark %q has a metric with empty key", r.Label, b.Name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("record %q: benchmark %q metric %q is %v (want finite)",
					r.Label, b.Name, k, v)
			}
		}
	}
	return nil
}

// canonicalize sorts the record's benchmarks by name so the writer's
// output is byte-stable regardless of input order.
func (r *Record) canonicalize() {
	sort.Slice(r.Benchmarks, func(i, j int) bool {
		return r.Benchmarks[i].Name < r.Benchmarks[j].Name
	})
}

// ReadHistory parses a pilotrf-benchhistory/v1 NDJSON stream,
// validating the schema header, every record, and run-label uniqueness.
// It returns a structured error naming the offending line — never
// panics — and tolerates blank lines.
func ReadHistory(r io.Reader) (History, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	sawHeader := false
	var h History
	labels := map[string]int{} // label -> first line
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if !sawHeader {
			var hd header
			if err := json.Unmarshal(raw, &hd); err != nil {
				return History{}, fmt.Errorf("benchstore: line %d: bad header: %w", line, err)
			}
			if hd.Schema != Schema {
				return History{}, fmt.Errorf("benchstore: line %d: schema %q, want %q", line, hd.Schema, Schema)
			}
			sawHeader = true
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return History{}, fmt.Errorf("benchstore: line %d: %w", line, err)
		}
		if err := rec.Validate(); err != nil {
			return History{}, fmt.Errorf("benchstore: line %d: %v", line, err)
		}
		if prev, ok := labels[rec.Label]; ok {
			return History{}, fmt.Errorf("benchstore: line %d: duplicate run label %q (first on line %d)",
				line, rec.Label, prev)
		}
		labels[rec.Label] = line
		h.Records = append(h.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return History{}, fmt.Errorf("benchstore: read: %w", err)
	}
	if !sawHeader {
		return History{}, fmt.Errorf("benchstore: missing %s header", Schema)
	}
	return h, nil
}

// ReadHistoryFile reads and validates a history file.
func ReadHistoryFile(path string) (History, error) {
	f, err := os.Open(path)
	if err != nil {
		return History{}, err
	}
	defer f.Close()
	h, err := ReadHistory(f)
	if err != nil {
		return History{}, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

// WriteHistory writes the canonical form: schema header, then one
// record per line with benchmarks sorted by name. Records must already
// validate; map keys are sorted by encoding/json, so identical
// histories always serialize to identical bytes.
func WriteHistory(w io.Writer, h History) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Schema: Schema}); err != nil {
		return err
	}
	seen := map[string]bool{}
	for i := range h.Records {
		rec := h.Records[i] // copy so canonicalize cannot reorder the caller's slice header
		rec.Benchmarks = append([]BenchmarkSamples(nil), rec.Benchmarks...)
		rec.canonicalize()
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("benchstore: record %d: %v", i, err)
		}
		if seen[rec.Label] {
			return fmt.Errorf("benchstore: record %d: duplicate run label %q", i, rec.Label)
		}
		seen[rec.Label] = true
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteHistoryFile writes the canonical history to path, creating or
// truncating it.
func WriteHistoryFile(path string, h History) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteHistory(f, h); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// AppendRecordFile appends one record to the history at path, creating
// the file (with its schema header) when absent. The existing file is
// fully read and validated first — an append never lands on top of a
// corrupt history or a duplicate label — and the new line is written in
// canonical form.
func AppendRecordFile(path string, rec Record) error {
	rec.Benchmarks = append([]BenchmarkSamples(nil), rec.Benchmarks...)
	rec.canonicalize()
	if err := rec.Validate(); err != nil {
		return fmt.Errorf("benchstore: %v", err)
	}

	existing := History{}
	if _, err := os.Stat(path); err == nil {
		existing, err = ReadHistoryFile(path)
		if err != nil {
			return fmt.Errorf("benchstore: refusing to append to invalid history: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if _, dup := existing.ByLabel(rec.Label); dup {
		return fmt.Errorf("benchstore: %s: run label %q already recorded", path, rec.Label)
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if len(existing.Records) == 0 {
		if err := enc.Encode(header{Schema: Schema}); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(&rec); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
