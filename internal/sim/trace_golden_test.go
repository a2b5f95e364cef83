package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"path/filepath"
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/energy"
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
func TestTracerGoldens(t *testing.T) {
	w, err := workloads.ByName("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Scale(0.02)
	var got bytes.Buffer
	for _, sch := range design.All() {
		k := sch.DefaultKnobs()
		cfg, err := testConfig().WithScheme(sch, k)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Energy = energy.NewLedger(sch.Base(k), 0)
		sums := []struct {
			format string
			h      hash.Hash
		}{{"text", sha256.New()}, {"ndjson", sha256.New()}, {"perfetto", sha256.New()}}
		cfg.Tracer = NewTeeTracer(
			&WriterTracer{W: sums[0].h},
			NewNDJSONTracer(sums[1].h),
			NewPerfettoTracer(sums[2].h),
		)
		g, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		if _, err := g.RunKernels(w.Name, w.Kernels); err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		if err := FlushTracer(cfg.Tracer); err != nil {
			t.Fatalf("%s: %v", sch.Name(), err)
		}
		for _, s := range sums {
			fmt.Fprintf(&got, "%x  %s.%s\n", s.h.Sum(nil), sch.Name(), s.format)
		}
	}
	checkGolden(t, filepath.Join("testdata", "goldens", "tracers.sha256"), got.Bytes())
}
