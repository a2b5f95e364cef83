package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// specFile is the benchmark definition at the repository root: the
// command, the workloads, and every metric's unit, direction and bound.
const specFile = "BENCHMARK.json"

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workload   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

// workload is one BENCHMARK.json workload entry.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec is one BENCHMARK.json metric. Bound is set only for
// end-to-end metrics: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Limits on the definition, checked before anything runs.
const (
	maxWorkloads = 4
	maxEndToEnd  = 16
	maxPerLayer  = 128
	maxBound     = 0.25
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// findSpec looks for BENCHMARK.json in dir and then in each parent, so
// the benchmark runs from the repository root or from inside bench/.
func findSpec(dir string) (string, error) {
	for {
		p := filepath.Join(dir, specFile)
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("%s not found in the working directory or its parents", specFile)
		}
		dir = parent
	}
}

// loadSpec finds, parses and validates BENCHMARK.json.
func loadSpec() (*benchSpec, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	path, err := findSpec(wd)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSpec(data)
}

// parseSpec decodes a definition, rejecting unknown keys, and validates
// it against the limits and the metric catalog.
func parseSpec(data []byte) (*benchSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

func (s *benchSpec) validate() error {
	if len(s.Workloads) < 2 || len(s.Workloads) > maxWorkloads {
		return fmt.Errorf("%d workloads, want 2 to %d", len(s.Workloads), maxWorkloads)
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1 to %d", len(s.EndToEnd), maxEndToEnd)
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1 to %d", len(s.PerLayer), maxPerLayer)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	for _, w := range s.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			return fmt.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		if runners[w.Name] == nil {
			return fmt.Errorf("workload %q has no implementation", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why must be 1 to 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > maxBound {
			return fmt.Errorf("end-to-end metric %q: bound must be in [0, %v]", m.Name, maxBound)
		}
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			return fmt.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %q: malformed unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("metric %q: better must be higher or lower, not %q", m.Name, m.Better)
		}
	}
	for _, m := range s.PerLayer {
		if m.Bound != nil {
			return fmt.Errorf("per-layer metric %q carries a bound", m.Name)
		}
	}
	if m, ok := s.metric("setup_s"); !ok || m.Unit != "s" || m.Better != "lower" || m.Bound == nil {
		return fmt.Errorf("end-to-end metric setup_s (unit s, lower is better) is required")
	}
	return checkCatalog(s)
}

// metric returns the definition of the named metric.
func (s *benchSpec) metric(name string) (metricSpec, bool) {
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// metrics returns the metrics a run reports: the end-to-end set, or the
// per-layer set in a traced run.
func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
