package jobs

import (
	"bytes"
	"context"
	"strconv"
	"testing"

	"pilotrf/internal/telemetry"
	"pilotrf/internal/trace"
)

// poolSpanNDJSON runs n no-op tasks on a workers-wide pool under a
// traced context and returns the deterministic span NDJSON bytes.
func poolSpanNDJSON(t *testing.T, workers, n int) []byte {
	t.Helper()
	p, err := New(Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rec := trace.NewRecorder(false)
	root := rec.Root("batch", trace.TraceID("jobs-test"), "b")
	ctx := trace.NewContext(context.Background(), root.Context())
	if _, err := Map(ctx, p, n, func(ctx context.Context, i int) (interface{}, error) {
		return i * i, nil
	}); err != nil {
		t.Fatal(err)
	}
	root.End()
	var buf bytes.Buffer
	if err := trace.WriteSpans(&buf, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPoolTaskSpansWorkerCountInvariant pins the tracing contract the
// whole subsystem rests on: the span tree (ids, parentage, attrs) is
// byte-identical whether one worker or eight ran the batch.
func TestPoolTaskSpansWorkerCountInvariant(t *testing.T) {
	seq := poolSpanNDJSON(t, 1, 64)
	par := poolSpanNDJSON(t, 8, 64)
	if !bytes.Equal(seq, par) {
		t.Fatalf("span NDJSON differs between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", seq, par)
	}
	spans, err := trace.ReadSpans(bytes.NewReader(seq))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 65 { // root + 64 pool.task
		t.Fatalf("got %d spans, want 65", len(spans))
	}
	if _, err := trace.BuildTree(spans); err != nil {
		t.Fatalf("tree invalid: %v", err)
	}
	tasks := 0
	for _, s := range spans {
		if s.Name != "pool.task" {
			continue
		}
		tasks++
		if s.Wall != nil {
			t.Fatalf("deterministic recorder leaked a wall section: %+v", s)
		}
		if s.Attrs["index"] == "" {
			t.Fatalf("pool.task missing index attr: %+v", s)
		}
	}
	if tasks != 64 {
		t.Fatalf("got %d pool.task spans, want 64", tasks)
	}
}

// TestPoolTaskSpansWallAnnotations checks the nondeterministic side:
// wall sections carry worker ids and queue waits, and the tree stays
// interval-consistent.
func TestPoolTaskSpansWallAnnotations(t *testing.T) {
	p, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rec := trace.NewRecorder(true)
	root := rec.Root("batch", trace.TraceID("jobs-wall"), "b")
	ctx := trace.NewContext(context.Background(), root.Context())
	if _, err := Map(ctx, p, 32, func(ctx context.Context, i int) (interface{}, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := rec.Spans()
	if _, err := trace.BuildTree(spans); err != nil {
		t.Fatalf("wall tree invalid: %v", err)
	}
	for _, s := range spans {
		if s.Name != "pool.task" {
			continue
		}
		if s.Wall == nil {
			t.Fatalf("wall recorder produced span without wall: %+v", s)
		}
		w := s.Wall.Attrs["worker"]
		if w == "" {
			t.Fatalf("pool.task missing worker wall attr: %+v", s.Wall)
		}
		if n, err := strconv.Atoi(w); err != nil || n < 0 || n >= 4 {
			t.Fatalf("bad worker id %q", w)
		}
		if s.Wall.Attrs["queue_ns"] == "" {
			t.Fatalf("pool.task missing queue_ns wall attr: %+v", s.Wall)
		}
		if origin, ok := s.Wall.Attrs["stolen_from"]; ok {
			if n, err := strconv.Atoi(origin); err != nil || n < 0 || n >= 4 {
				t.Fatalf("bad stolen_from %q", origin)
			}
		}
	}
	// Deterministic projection of a wall recording still matches the
	// no-wall recorder's byte output shape after stripping.
	if _, err := trace.BuildTree(trace.StripWall(spans)); err != nil {
		t.Fatalf("stripped tree invalid: %v", err)
	}
}

// TestPoolTracingDisabledZeroAlloc asserts the disabled span path adds
// no per-task allocations: a 1024-task batch stays under a small
// constant bound that per-task work (even one alloc per task) would
// blow past by an order of magnitude.
func TestPoolTracingDisabledZeroAlloc(t *testing.T) {
	p, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	tasks := make([]Task, 1024)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) (interface{}, error) { return nil, nil }
	}
	allocs := testing.AllocsPerRun(10, func() {
		b, err := p.Submit(ctx, tasks)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	})
	// Per-batch bookkeeping (batch struct, results slice, chunk deque
	// growth, fin channel) is allowed; anything scaling with the 1024
	// tasks is not.
	if allocs > 64 {
		t.Fatalf("disabled tracing allocates: %.0f allocs per 1024-task batch", allocs)
	}
}

// TestPoolTracingDisabledNoSpans double-checks nothing records without
// an active context.
func TestPoolTracingDisabledNoSpans(t *testing.T) {
	p, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := Map(context.Background(), p, 8, func(ctx context.Context, i int) (interface{}, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPoolTaskTracingDisabled / Enabled put the hot-path cost on
// the benchmark history record.
func benchmarkPoolTasks(b *testing.B, traced bool) {
	p, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	var root *trace.ActiveSpan
	if traced {
		rec := trace.NewRecorder(false)
		root = rec.Root("bench", trace.TraceID("bench"))
		ctx = trace.NewContext(ctx, root.Context())
	}
	tasks := make([]Task, 256)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) (interface{}, error) { return nil, nil }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := p.Submit(ctx, tasks)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := batch.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	root.End()
}

func BenchmarkPoolTaskTracingDisabled(b *testing.B) { benchmarkPoolTasks(b, false) }
func BenchmarkPoolTaskTracingEnabled(b *testing.B)  { benchmarkPoolTasks(b, true) }

// TestCacheMetrics asserts the Prometheus mirrors of the cache
// counters track Stats exactly (satellite: counted-but-never-scraped).
func TestCacheMetrics(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.Metrics(reg)

	key := NewKey().Field("kind", "metrics-test").Sum()
	var out int
	if c.Get(key, &out) {
		t.Fatal("unexpected hit")
	}
	if err := c.Put(key, 42); err != nil {
		t.Fatal(err)
	}
	if !c.Get(key, &out) || out != 42 {
		t.Fatal("expected hit")
	}
	snap := reg.Map()
	want := map[string]float64{"cache_hits": 1, "cache_misses": 1, "cache_corrupt": 0, "cache_puts": 1}
	for name, v := range want {
		if got := snap[name]; got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats diverged from metrics: %+v", st)
	}

	// nil cache / nil registry are inert.
	var nilCache *Cache
	nilCache.Metrics(reg)
	c.Metrics(nil)
}
