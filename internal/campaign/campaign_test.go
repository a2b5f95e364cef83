package campaign

import (
	"context"
	"encoding/json"
	"math"
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
// degrades to recomputation, not a crash or a wrong report. A Cache
// serves entries it has validated from memory, so each tampered store
// is read through a fresh Cache, as a resumed process would.
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
	cache = openCache(t, dir)
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

	// Strip the payload from every entry. Get hits on such an entry and
	// leaves a zero golden or cell, which Run's own checks reject, so
	// the run recomputes everything.
	for _, e := range ents {
		stripPayload(t, filepath.Join(dir, e.Name()))
	}
	cache = openCache(t, dir)
	before := cache.Stats()
	reg = telemetry.NewRegistry()
	fourth, err := Run(context.Background(), testSpec(), Options{Pool: newPool(t, 2, reg), Cache: cache})
	if err != nil {
		t.Fatalf("run over payload-less cache: %v", err)
	}
	if !reflect.DeepEqual(first, fourth) {
		t.Fatal("recomputed-after-stripping report differs")
	}
	if n := reg.Map()["jobs_submitted"]; n == 0 {
		t.Fatal("run over payload-less entries submitted no jobs")
	}
	if st := cache.Stats(); st.Hits-before.Hits != uint64(len(ents)) || st.Corrupt != before.Corrupt {
		t.Errorf("payload-less entries: stats %+v after %+v, want %d more hits and no more corrupt", st, before, len(ents))
	}
}

// openCache opens a Cache over dir.
func openCache(t *testing.T, dir string) *jobs.Cache {
	t.Helper()
	c, err := jobs.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stripPayload deletes the payload field from the cache envelope at
// path.
func stripPayload(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(buf, &env); err != nil {
		t.Fatal(err)
	}
	delete(env, "payload")
	if buf, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
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

// loadLog is an in-memory jobs.Backend that records every Load.
type loadLog struct {
	mu    sync.Mutex
	m     map[string][]byte
	loads []string
}

func (b *loadLog) Load(hexKey string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.loads = append(b.loads, hexKey)
	buf, ok := b.m[hexKey]
	if !ok {
		return nil, os.ErrNotExist
	}
	return buf, nil
}

func (b *loadLog) Store(hexKey string, envelope []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[hexKey] = envelope
	return nil
}

// TestGoldensReadOnlyForCellsToCompute: a fully cached spec reads no
// golden, and with one cell missing Run reads exactly that cell's
// (design, workload) golden. Each run reads through a fresh Cache over
// the same store, so every lookup reaches it, and Progress still ends
// at the spec's job count.
func TestGoldensReadOnlyForCellsToCompute(t *testing.T) {
	spec := planSpec()
	pl, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	store := &loadLog{m: map[string][]byte{}}
	run := func() (Report, []string, float64) {
		t.Helper()
		cache, err := jobs.NewCache(store)
		if err != nil {
			t.Fatal(err)
		}
		store.loads = nil
		reg := telemetry.NewRegistry()
		last := 0
		rep, err := Run(context.Background(), spec, Options{Pool: newPool(t, 2, reg), Cache: cache,
			Progress: func(done, _ int) { last = done }})
		if err != nil {
			t.Fatal(err)
		}
		if last != pl.NumJobs() {
			t.Errorf("progress ended at %d, want %d", last, pl.NumJobs())
		}
		return rep, store.loads, reg.Map()["jobs_submitted"]
	}
	goldens := map[string]string{}
	for _, d := range pl.Spec().Designs {
		for _, w := range pl.p.wls {
			goldens[pl.p.goldenKey(d, w).Hex()] = d + "/" + w.Name
		}
	}
	readGoldens := func(loads []string) []string {
		var got []string
		for _, k := range loads {
			if g, ok := goldens[k]; ok {
				got = append(got, g)
			}
		}
		return got
	}

	cold, loads, _ := run()
	if got := readGoldens(loads); len(got) != len(goldens) {
		t.Fatalf("cold run read goldens %v, want all %d", got, len(goldens))
	}
	warm, loads, submitted := run()
	if got := readGoldens(loads); len(got) != 0 || len(loads) != pl.NumCells() || submitted != 0 {
		t.Errorf("fully cached run: %d loads, goldens %v, %v jobs; want %d cell loads only", len(loads), got, submitted, pl.NumCells())
	}
	const gone = 5 // mrf-ntv/sgemm/parity
	ref := pl.Cell(gone)
	delete(store.m, pl.CellKey(gone).Hex())
	partial, loads, submitted := run()
	if got, want := readGoldens(loads), []string{ref.Design + "/" + ref.Workload}; !reflect.DeepEqual(got, want) {
		t.Errorf("one missing cell: read goldens %v, want %v", got, want)
	}
	if submitted != float64(spec.Trials) {
		t.Errorf("one missing cell: %v jobs, want its %d trials", submitted, spec.Trials)
	}
	if !reflect.DeepEqual(cold, warm) || !reflect.DeepEqual(cold, partial) {
		t.Error("cached runs report differently from the cold run")
	}
}

// TestKeysPinned pins testSpec's cache keys, the file names of its
// golden and cells, and its spec key, so a change in how keys are built
// shows here before it orphans every cache on disk.
func TestKeysPinned(t *testing.T) {
	pl, err := NewPlan(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	golden := pl.p.goldenKey("part-adaptive", pl.p.wls[0])
	if got, want := golden.Preimage(), "kind=golden\x00schema=pilotrf-faultcampaign/v1\x00version=golden/v2\x00"+
		"design=part-adaptive\x00workload=sgemm\x00scale=0.05\x00sms=1\x00"; got != want {
		t.Errorf("golden preimage %q, want %q", got, want)
	}
	got := []string{golden.Hex(), pl.p.specKey().Hex()}
	for i := 0; i < pl.NumCells(); i++ {
		got = append(got, pl.CellKey(i).Hex())
	}
	want := []string{"e038418550c4c9cc", "412d5da88d6c295b", "969bdfe3dffa7ce8", "19859782fc0af42b", "adc1016cf8940c44"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("keys %v, want %v", got, want)
	}
}

// TestProgressAndCellDone: on four workers Progress calls never
// overlap, done rises with every call, never passes the total and ends
// at it, and the report lists its cells in canonical order.
func TestProgressAndCellDone(t *testing.T) {
	spec := testSpec()
	total, err := spec.NumJobs()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lastDone, calls int
	rep, err := Run(context.Background(), spec, Options{
		Pool: newPool(t, 4, nil),
		Progress: func(done, tot int) {
			if !mu.TryLock() {
				t.Error("progress calls overlap")
				return
			}
			defer mu.Unlock()
			calls++
			if tot != total {
				t.Errorf("progress total %d, want %d", tot, total)
			}
			if done <= lastDone || done > total {
				t.Errorf("progress %d after %d, want it to rise and stay within %d", done, lastDone, total)
			}
			lastDone = done
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != total || calls != total {
		t.Errorf("progress reached %d in %d calls, want %d in %d", lastDone, calls, total, total)
	}
	var cells []string
	for _, c := range rep.Cells {
		cells = append(cells, c.Protection)
	}
	if want := []string{"none", "parity", "secded"}; !reflect.DeepEqual(cells, want) {
		t.Errorf("cell order %v, want %v", cells, want)
	}
	if rep.Schema != Schema {
		t.Errorf("schema %q", rep.Schema)
	}
}

// TestTamperedCellRecomputed: a cached cell whose outcome counts do not
// sum to the spec's trials fails ValidCell, so Run recomputes it, as
// the fleet coordinator does, instead of reporting the tampered counts.
func TestTamperedCellRecomputed(t *testing.T) {
	spec := testSpec()
	cache, err := jobs.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cold := runSpec(t, spec, cache)
	pl, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	bad := cold.Cells[1]
	bad.Outcomes = Outcomes{Masked: 99}
	if err := cache.Put(pl.CellKey(1), bad); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	warm, err := Run(context.Background(), spec, Options{Pool: newPool(t, 2, reg), Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("tampered cell reported: cell 1 %+v, want %+v", warm.Cells[1], cold.Cells[1])
	}
	if n := reg.Map()["jobs_submitted"]; n != float64(spec.Trials) {
		t.Errorf("run over one tampered cell submitted %v jobs, want its %d trials", n, spec.Trials)
	}
	var c Cell
	if !cache.Get(pl.CellKey(1), &c) || c != cold.Cells[1] {
		t.Errorf("recomputed cell not cached: read %+v, want %+v", c, cold.Cells[1])
	}
}

// TestCanonicalSpelling: padded names and protection aliases report,
// key and cache their cells under the registry names, so a rerun with
// the canonical spelling hits every entry the first run wrote.
func TestCanonicalSpelling(t *testing.T) {
	spec := testSpec()
	spec.Benchmarks = []string{" sgemm"}
	spec.Designs = []string{" part-adaptive "}
	spec.Protect = []string{"unprotected", "parity ", "ecc"}
	cache, err := jobs.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	got := runSpec(t, spec, cache)
	if spec.Designs[0] != " part-adaptive " || spec.Protect[2] != "ecc" || spec.Benchmarks[0] != " sgemm" {
		t.Errorf("Run rewrote the caller's spec: %+v", spec)
	}
	want := runSpec(t, testSpec(), nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aliased spec reported %+v, want %+v", got.Cells, want.Cells)
	}
	pl, err := NewPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := NewPlan(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pl.NumCells(); i++ {
		if pl.Cell(i) != canon.Cell(i) || pl.CellKey(i) != canon.CellKey(i) {
			t.Errorf("cell %d: %+v keyed %s, canonical %+v keyed %s", i, pl.Cell(i), pl.CellKey(i), canon.Cell(i), canon.CellKey(i))
		}
	}
	if pl.TraceID() != canon.TraceID() {
		t.Error("aliased spec traces under a different id")
	}
	before := cache.Stats()
	runSpec(t, testSpec(), cache)
	if st := cache.Stats(); st.Misses != before.Misses || st.Hits-before.Hits != 3 {
		t.Errorf("canonical rerun: %d hits and %d misses, want 3 hits (the cells, no golden) and none",
			st.Hits-before.Hits, st.Misses-before.Misses)
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
		{Trials: maxTrials + 1},
		// 2^62 on 64-bit hosts, whose job count once wrapped to 1.
		{Trials: math.MaxInt/2 + 1, Benchmarks: []string{"sgemm"}, Designs: []string{"part"}},
		{SMs: maxSMs + 1},
		{SMs: 1000000000},
		{Scale: maxScale * 1.01},
		{Scale: math.Inf(1)},
		{Scale: math.NaN()},
		// 3 designs x 17 workloads x (1 + 4 schemes x 5200 trials) jobs.
		{Trials: 5200},
		{Designs: make([]string, 1<<15)},
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
	// Every cap is inclusive.
	edge := Spec{Benchmarks: []string{"sgemm"}, Designs: []string{"part"}, Protect: []string{"none"},
		Trials: maxTrials, SMs: maxSMs, Scale: maxScale}
	if n, err := edge.NumJobs(); err != nil || n != 1+maxTrials {
		t.Errorf("spec at every cap: %d jobs, %v", n, err)
	}
	// 3 x 17 x (1 + 4 x 5139) = 1,048,560 jobs, just under the cap.
	if _, err := (Spec{Trials: 5139}).NumJobs(); err != nil {
		t.Errorf("spec just under the job cap: %v", err)
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

// BenchmarkCachedRun times one campaign whose cells are all in a warm
// directory cache: the per-request cost of compiling a spec and reading
// its cells back, with no simulation and no golden read. After the
// first run every read comes from the Cache's in-process tier. It fails
// if any lookup misses.
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

// BenchmarkCacheGet times one Get of a warm cell entry from a directory
// cache, decoding its Cell, and fails on a miss. "memory" reads it from
// the Cache's in-process tier; "backend" from the file, through a Cache
// that has not read it yet (one per iteration, opened untimed), so it
// also decodes the envelope.
func BenchmarkCacheGet(b *testing.B) {
	spec := testSpec()
	spec.Protect, spec.Trials = []string{"paper"}, 1
	dir := b.TempDir()
	cache, err := jobs.OpenCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	runSpec(b, spec, cache)
	pl, err := NewPlan(spec)
	if err != nil {
		b.Fatal(err)
	}
	key := pl.CellKey(0)
	get := func(b *testing.B, c *jobs.Cache) {
		var cell Cell
		if !c.Get(key, &cell) {
			b.Fatal("warm cell entry missed")
		}
	}
	b.Run("memory", func(b *testing.B) {
		get(b, cache)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, cache)
		}
	})
	b.Run("backend", func(b *testing.B) {
		caches := make([]*jobs.Cache, b.N)
		for i := range caches {
			if caches[i], err = jobs.OpenCache(dir); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, c := range caches {
			get(b, c)
		}
	})
}
