package telemetry

import (
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"sim.stall.barrier":   "sim_stall_barrier",
		"serve_jobs_accepted": "serve_jobs_accepted",
		"9lives":              "_9lives",
		"a-b c/d":             "a_b_c_d",
		"":                    "_",
		"ok:subsystem":        "ok:subsystem",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheusGolden pins the exposition bytes for a registry
// with all three metric kinds: deterministic ordering, sanitized names,
// cumulative buckets, and the +Inf/_sum/_count trailer.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.issued").Add(7)
	r.Gauge("queue.depth").Set(-3)
	h := r.Histogram("lat_seconds", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(1)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.5"} 2
lat_seconds_bucket{le="2"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 10.75
lat_seconds_count 4
# TYPE queue_depth gauge
queue_depth -3
# TYPE sim_issued counter
sim_issued 7
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got\n%s--- want\n%s", sb.String(), want)
	}

	// Byte-determinism: a second render is identical.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != sb.String() {
		t.Error("two renders of the same registry differ")
	}
}
