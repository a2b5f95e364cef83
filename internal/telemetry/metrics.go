// Package telemetry is the simulator's observation layer: a lightweight
// metrics registry (atomic counters and gauges, allocation-free on the
// hot path), epoch-resolution time series with CSV export, the
// stall-cycle attribution taxonomy, an optional expvar/pprof live
// endpoint for long sweeps, and the CPU and heap profile files behind
// the commands' -cpuprofile and -memprofile flags.
//
// The package is deliberately free of simulator dependencies — the sim
// package imports telemetry, never the reverse — so the same primitives
// can serve future subsystems (memory hierarchy, interconnect) without
// import cycles.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric is a named scalar sample source held by a Registry.
type Metric interface {
	// Sample returns the metric's current value.
	Sample() float64
}

// Counter is a monotonically increasing metric. The zero value is ready
// to use; Add is a single atomic instruction, safe for concurrent use
// and allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Sample implements Metric.
func (c *Counter) Sample() float64 { return float64(c.v.Load()) }

// Gauge is an instantaneous signed metric (queue depth, mode bit). The
// zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Sample implements Metric.
func (g *Gauge) Sample() float64 { return float64(g.v.Load()) }

// Registry is a named collection of metrics. Registration takes a lock;
// updating a registered metric touches only its own atomic, so the
// simulator resolves counters once at setup and pays nothing per cycle.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]Metric)}
}

// Counter returns the counter with the given name, creating it on first
// use. It panics if the name is already bound to a non-counter metric.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("telemetry: metric %q is a %T, not a counter", name, m))
		}
		return c
	}
	c := &Counter{}
	r.metrics[name] = c
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// It panics if the name is already bound to a non-gauge metric.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("telemetry: metric %q is a %T, not a gauge", name, m))
		}
		return g
	}
	g := &Gauge{}
	r.metrics[name] = g
	return g
}

// Point is one named sample from a registry snapshot.
type Point struct {
	Name  string
	Value float64
}

// Snapshot returns every metric's current value, sorted by name.
// Histograms expand into derived points — name_count, name_sum, and the
// p50/p95/p99 quantile estimates — so scalar consumers (expvar, the JSON
// metrics page) see finite numbers, never bucket vectors.
func (r *Registry) Snapshot() []Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Point, 0, len(r.metrics))
	for name, m := range r.metrics {
		if h, ok := m.(*Histogram); ok {
			out = append(out,
				Point{Name: name + "_count", Value: float64(h.Count())},
				Point{Name: name + "_sum", Value: h.Sum()},
				Point{Name: name + "_p50", Value: h.Quantile(0.50)},
				Point{Name: name + "_p95", Value: h.Quantile(0.95)},
				Point{Name: name + "_p99", Value: h.Quantile(0.99)},
			)
			continue
		}
		out = append(out, Point{Name: name, Value: m.Sample()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Map returns the snapshot as a name-to-value map (the shape expvar
// serves).
func (r *Registry) Map() map[string]float64 {
	out := make(map[string]float64)
	for _, p := range r.Snapshot() {
		out[p.Name] = p.Value
	}
	return out
}
