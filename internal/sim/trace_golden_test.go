package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"path/filepath"
	"strings"
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/energy"
	"pilotrf/internal/fault"
	"pilotrf/internal/workloads"
)

// TestTracerGoldens pins the exact bytes every formatting tracer writes —
// WriterTracer text, NDJSONTracer and PerfettoTracer — for one workload
// on every registered scheme, with an energy ledger attached so the
// epoch counter samples are covered too. The traces run to megabytes, so
// the golden holds their SHA-256 digests. The flight-recorder goldens
// cover neither the Tracer's event order nor its wording; this one does,
// so a refactor of the SM's event plumbing must keep it byte-identical.
// Regenerate with -update-goldens only for a change meant to alter
// tracer output.
//
// sgemm has neither barriers nor faults, so one more row runs nw, whose
// CTAs synchronise, on part-adaptive under fault injection; the test
// asserts that row really carries barrier and cell-fault events.
func TestTracerGoldens(t *testing.T) {
	var got bytes.Buffer
	sgemm := scaledWorkload(t, "sgemm", 0.02)
	for _, sch := range design.All() {
		traceDigests(t, &got, sch.Name(), sch, sgemm, nil)
	}
	c := traceDigests(t, &got, "nw-fault.part-adaptive", design.MustLookup("part-adaptive"),
		scaledWorkload(t, "nw", 0.02), &fault.Config{Rate: 1e-9, Seed: 3})
	if c.barriers == 0 || c.cellFaults == 0 {
		t.Errorf("nw-fault row traced %d barrier and %d cell-fault events, want at least one of each",
			c.barriers, c.cellFaults)
	}
	checkGolden(t, filepath.Join("testdata", "goldens", "tracers.sha256"), got.Bytes())
}

func scaledWorkload(t testing.TB, name string, scale float64) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Scale(scale)
}

// traceCounts counts the barrier arrivals and cell-fault placements a
// run traced.
type traceCounts struct{ barriers, cellFaults int }

// Event implements Tracer.
func (c *traceCounts) Event(e TraceEvent) {
	switch {
	case e.Kind == TraceBarrier:
		c.barriers++
	case e.Kind == TraceModeSwitch && strings.Contains(e.Detail, " fault "):
		c.cellFaults++
	}
}

// traceDigests runs w on sch (under fc when non-nil) with every
// formatting tracer attached and appends one digest line per format,
// labelled name.
func traceDigests(t *testing.T, out *bytes.Buffer, name string, sch design.Scheme, w workloads.Workload, fc *fault.Config) traceCounts {
	t.Helper()
	k := sch.DefaultKnobs()
	cfg, err := testConfig().WithScheme(sch, k)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Energy = energy.NewLedger(sch.Base(k), 0)
	cfg.Fault = fc
	sums := []struct {
		format string
		h      hash.Hash
	}{{"text", sha256.New()}, {"ndjson", sha256.New()}, {"perfetto", sha256.New()}}
	var counts traceCounts
	cfg.Tracer = NewTeeTracer(
		&WriterTracer{W: sums[0].h},
		NewNDJSONTracer(sums[1].h),
		NewPerfettoTracer(sums[2].h),
		&counts,
	)
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, err := g.RunKernels(w.Name, w.Kernels); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := FlushTracer(cfg.Tracer); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, s := range sums {
		fmt.Fprintf(out, "%x  %s.%s\n", s.h.Sum(nil), name, s.format)
	}
	return counts
}
