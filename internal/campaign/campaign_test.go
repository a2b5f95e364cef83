package campaign

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"pilotrf/internal/jobs"
	"pilotrf/internal/telemetry"
)

// testSpec is a small campaign that still exercises every classification
// path cheaply.
func testSpec() Spec {
	return Spec{
		Benchmarks: []string{"sgemm"},
		Designs:    []string{"part-adaptive"},
		Protect:    []string{"none", "parity", "secded"},
		Trials:     3,
		Rate:       2e-11,
		Seed:       42,
		Scale:      0.05,
		SMs:        1,
	}
}

func newPool(t *testing.T, workers int, reg *telemetry.Registry) *jobs.Pool {
	t.Helper()
	p, err := jobs.New(jobs.Config{Workers: workers, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// TestParallelMatchesSequential is the engine's core property: the
// report marshals to identical bytes whether one worker or many ran the
// grid.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := Run(context.Background(), testSpec(), Options{Pool: newPool(t, 1, nil)})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), testSpec(), Options{Pool: newPool(t, 4, nil)})
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := json.MarshalIndent(seq, "", "  ")
	pb, _ := json.MarshalIndent(par, "", "  ")
	if string(sb) != string(pb) {
		t.Fatalf("parallel report differs from sequential:\n--- seq\n%s\n--- par\n%s", sb, pb)
	}
	if len(seq.Cells) != 3 {
		t.Fatalf("%d cells, want 3", len(seq.Cells))
	}
	for i, c := range seq.Cells {
		if got := c.Outcomes.Masked + c.Outcomes.Corrected + c.Outcomes.DetectedUnrecoverable + c.Outcomes.SDC; got != seq.Trials {
			t.Errorf("cell %d outcomes sum to %d, want %d", i, got, seq.Trials)
		}
	}
}

// TestCacheResume: a second run over a warm cache recomputes nothing —
// zero pool jobs — and returns the identical report; a corrupted entry
// degrades to recomputation, not a crash or a wrong report.
func TestCacheResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := jobs.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(context.Background(), testSpec(), Options{Pool: newPool(t, 2, nil), Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	second, err := Run(context.Background(), testSpec(), Options{Pool: newPool(t, 2, reg), Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached report differs from computed report")
	}
	if n := reg.Map()["jobs_submitted"]; n != 0 {
		t.Fatalf("warm-cache run submitted %v jobs, want 0", n)
	}

	// Corrupt every cache entry; the run must quietly recompute.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("cache directory empty after a cached run")
	}
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	third, err := Run(context.Background(), testSpec(), Options{Pool: newPool(t, 2, nil), Cache: cache})
	if err != nil {
		t.Fatalf("run over corrupted cache: %v", err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatal("recomputed-after-corruption report differs")
	}
	if st := cache.Stats(); st.Corrupt == 0 {
		t.Error("corrupted entries not counted")
	}
}

// TestGoldenSharedAcrossSchemes: the golden run count equals
// designs x workloads, not designs x workloads x schemes — one golden
// serves every protection scheme's trials. With a warm golden cache and
// a cold cell cache, only the trials run.
func TestGoldenSharedAcrossSchemes(t *testing.T) {
	spec := testSpec()
	cache, err := jobs.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if _, err := Run(context.Background(), spec, Options{Pool: newPool(t, 2, reg), Cache: cache}); err != nil {
		t.Fatal(err)
	}
	// 1 golden + 3 schemes x 3 trials = 10 pool jobs.
	if n := reg.Map()["jobs_submitted"]; n != 10 {
		t.Fatalf("cold run submitted %v jobs, want 10 (1 golden + 9 trials)", n)
	}

	// Reseeding invalidates cells but not goldens: the next run
	// resubmits only the 9 trials.
	spec.Seed = 43
	reg2 := telemetry.NewRegistry()
	if _, err := Run(context.Background(), spec, Options{Pool: newPool(t, 2, reg2), Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if n := reg2.Map()["jobs_submitted"]; n != 9 {
		t.Fatalf("reseeded run submitted %v jobs, want 9 (golden cached)", n)
	}
}

// TestProgressAndCellDone: Progress reaches (total, total), CellDone
// fires once per cell in canonical order.
func TestProgressAndCellDone(t *testing.T) {
	spec := testSpec()
	total, err := spec.NumJobs()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lastDone, calls int
	var cells []string
	rep, err := Run(context.Background(), spec, Options{
		Pool: newPool(t, 2, nil),
		Progress: func(done, tot int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if tot != total {
				t.Errorf("progress total %d, want %d", tot, total)
			}
			if done > lastDone {
				lastDone = done
			}
		},
		CellDone: func(c Cell) { cells = append(cells, c.Protection) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != total || calls != total {
		t.Errorf("progress reached %d in %d calls, want %d in %d", lastDone, calls, total, total)
	}
	want := []string{"none", "parity", "secded"}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("CellDone order %v, want %v", cells, want)
	}
	if rep.Schema != Schema {
		t.Errorf("schema %q", rep.Schema)
	}
}

// TestSpecValidation: bad axes are rejected before any simulation; the
// zero spec is valid (full default campaign); NumJobs prices the grid.
func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Designs: []string{"warp9"}},
		{Protect: []string{"tmr"}},
		{Benchmarks: []string{"doom"}},
		{Trials: -1},
		{Rate: -2e-11},
		{SMs: -2},
		{Scale: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec invalid: %v", err)
	}
	n, err := (Spec{}).NumJobs()
	if err != nil {
		t.Fatal(err)
	}
	// 3 designs x 17 workloads x (1 golden + 4 schemes x 5 trials).
	if want := 3 * 17 * (1 + 4*5); n != want {
		t.Errorf("default grid prices %d jobs, want %d", n, want)
	}
}

// TestNumJobsAllocs: pricing a spec resolves its workloads from the
// suite assembled once per process, so admission assembles no kernels.
func TestNumJobsAllocs(t *testing.T) {
	spec := Spec{Benchmarks: []string{"sgemm"}, Designs: []string{"part-adaptive"}}
	if _, err := spec.NumJobs(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { spec.NumJobs() }); n > 20 {
		t.Errorf("Spec.NumJobs makes %v allocations, want at most 20", n)
	}
}

// TestCancelledRunFails: a pre-cancelled context aborts the run with
// the context error instead of producing a partial report.
func TestCancelledRunFails(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testSpec(), Options{Pool: newPool(t, 2, nil)}); err == nil {
		t.Fatal("cancelled run returned a report")
	}
}

// BenchmarkCachedRun times one campaign whose goldens and cells are all
// in a warm directory cache: the per-request cost of compiling a spec
// and reading its results back, with no simulation. It fails if any
// lookup misses.
func BenchmarkCachedRun(b *testing.B) {
	spec := Spec{
		Benchmarks: []string{"sgemm"},
		Designs:    []string{"part-adaptive"},
		Protect:    []string{"none", "parity", "secded", "paper"},
		Trials:     2,
	}
	cache, err := jobs.OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	pool, err := jobs.New(jobs.Config{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	opt := Options{Pool: pool, Cache: cache}
	if _, err := Run(context.Background(), spec, opt); err != nil {
		b.Fatal(err)
	}
	warm := cache.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), spec, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Misses != warm.Misses {
		b.Fatalf("%d cache misses on a warm cache", st.Misses-warm.Misses)
	}
}
