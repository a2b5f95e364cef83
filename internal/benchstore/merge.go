package benchstore

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// VarianceError reports deterministic-metric variance across samples of
// one run. The simulator is deterministic; two samples of the same
// build disagreeing on a non-wall-clock metric means the metric (or the
// simulator) is broken, so recording treats it as a violation rather
// than averaging the disagreement away.
type VarianceError struct {
	Benchmark string
	Metric    string
	// Values holds the distinct values observed, in sample order.
	Values []float64
}

// Error lists the distinct values, e.g. "500 vs 501".
func (e *VarianceError) Error() string {
	parts := make([]string, len(e.Values))
	for i, v := range e.Values {
		parts[i] = fmt.Sprintf("%v", v)
	}
	return fmt.Sprintf("benchstore: deterministic metric %q of %s varies across samples: %s",
		e.Metric, e.Benchmark, strings.Join(parts, " vs "))
}

// Informational reports whether a metric measures wall-clock rather
// than simulated behavior (per-second rates like Mcycles/s): such
// metrics are never gated and never required to be stable across
// samples.
func Informational(key string) bool {
	return strings.HasSuffix(key, "/s")
}

// MergeSamples folds N parsed harness runs of the same build into one
// Record. Every sample must contain the same benchmark set (a missing
// or extra benchmark is structural variance), and every deterministic
// metric must be bit-identical across samples — rate metrics keep the
// first sample's value and are exempt. ns/op values are collected into
// per-benchmark sample vectors in run order.
func MergeSamples(label, commit string, timeUnix int64, host Host, runs [][]Benchmark) (Record, error) {
	if len(runs) == 0 {
		return Record{}, fmt.Errorf("benchstore: no samples to merge")
	}
	first, err := index(runs[0])
	if err != nil {
		return Record{}, fmt.Errorf("benchstore: sample 1: %w", err)
	}
	names := make([]string, 0, len(first))
	for n := range first {
		names = append(names, n)
	}
	sort.Strings(names)

	byName := make(map[string]*BenchmarkSamples, len(names))
	rec := Record{
		Label:      label,
		Commit:     commit,
		TimeUnix:   timeUnix,
		Host:       host,
		Benchmarks: make([]BenchmarkSamples, 0, len(names)),
	}
	for _, n := range names {
		b := first[n]
		metrics := make(map[string]float64, len(b.Metrics))
		for k, v := range b.Metrics {
			metrics[k] = v
		}
		rec.Benchmarks = append(rec.Benchmarks, BenchmarkSamples{
			Name:    n,
			NsPerOp: []float64{b.NsPerOp},
			Metrics: metrics,
		})
		byName[n] = &rec.Benchmarks[len(rec.Benchmarks)-1]
	}

	for si, run := range runs[1:] {
		idx, err := index(run)
		if err != nil {
			return Record{}, fmt.Errorf("benchstore: sample %d: %w", si+2, err)
		}
		if len(idx) != len(first) {
			return Record{}, fmt.Errorf("benchstore: sample %d has %d benchmarks, sample 1 has %d",
				si+2, len(idx), len(first))
		}
		for _, n := range names {
			b, ok := idx[n]
			if !ok {
				return Record{}, fmt.Errorf("benchstore: sample %d is missing benchmark %q", si+2, n)
			}
			dst := byName[n]
			dst.NsPerOp = append(dst.NsPerOp, b.NsPerOp)
			for k, v := range b.Metrics {
				prev, ok := dst.Metrics[k]
				if !ok {
					return Record{}, fmt.Errorf("benchstore: sample %d: benchmark %q gained metric %q absent from sample 1",
						si+2, n, k)
				}
				if Informational(k) {
					continue
				}
				if math.Float64bits(v) != math.Float64bits(prev) {
					return Record{}, &VarianceError{Benchmark: n, Metric: k, Values: []float64{prev, v}}
				}
			}
			for k := range dst.Metrics {
				if _, ok := b.Metrics[k]; !ok {
					return Record{}, fmt.Errorf("benchstore: sample %d: benchmark %q lost metric %q",
						si+2, n, k)
				}
			}
		}
	}
	return rec, nil
}
