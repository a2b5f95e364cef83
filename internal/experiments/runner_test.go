package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"pilotrf/internal/trace"
	"pilotrf/internal/workloads"
)

// tracedSweep is Figure 4 (with its per-kernel oracle runs) and Figure 12
// computed on a fresh runner with a given worker count, plus the span
// tree the runner recorded.
type tracedSweep struct {
	r     *Runner
	fig4  []Figure4Row
	fig12 Figure12Result
	spans []trace.Span
}

var (
	sweepsOnce          sync.Once
	sweepOne, sweepFour tracedSweep
)

// sweeps returns the traced sweep at 1 and at 4 workers, computed once
// for the tests that compare them.
func sweeps() (one, four tracedSweep) {
	sweepsOnce.Do(func() { sweepOne, sweepFour = sweepAt(1), sweepAt(4) })
	return sweepOne, sweepFour
}

func sweepAt(workers int) tracedSweep {
	r := NewRunner(0.05, 1)
	r.Workers = workers
	rec := trace.NewRecorder(false)
	root := rec.Root("experiments.test", trace.TraceID("pilotrf-experiments", "test"))
	r.Trace = root.Context()
	s := tracedSweep{r: r, fig4: Figure4(r), fig12: Figure12(r)}
	root.End()
	s.spans = rec.Spans()
	return s
}

// TestWorkerCountInvariant runs whole experiments on a single worker and
// on four: every row and average must match exactly, so -parallel N only
// changes wall-clock, never numbers.
func TestWorkerCountInvariant(t *testing.T) {
	one, four := sweeps()
	if !reflect.DeepEqual(one.fig4, four.fig4) {
		t.Errorf("Figure 4 differs between 1 and 4 workers:\n%+v\n%+v", one.fig4, four.fig4)
	}
	if !reflect.DeepEqual(one.fig12, four.fig12) {
		t.Errorf("Figure 12 differs between 1 and 4 workers:\n%+v\n%+v", one.fig12, four.fig12)
	}
}

// TestWarmWorkerCountInvariant compares the cache a sweep warms on a
// single worker with the one it warms on four: the same runs, oracle
// runs included, must be cached under the same keys with identical
// stats, so the worker count never changes what is simulated.
func TestWarmWorkerCountInvariant(t *testing.T) {
	one, four := sweeps()
	if len(one.r.cache) != len(four.r.cache) {
		t.Fatalf("cache sizes differ: %d vs %d", len(one.r.cache), len(four.r.cache))
	}
	for k, a := range one.r.cache {
		b, ok := four.r.cache[k]
		if !ok {
			t.Fatalf("%s (oracle top-%d) missing from the 4-worker cache", k.workload, k.oracleTopN)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s (oracle top-%d): worker count changed results (%d/%d vs %d/%d cycles/accesses)",
				k.workload, k.oracleTopN, a.TotalCycles(), a.TotalAccesses(), b.TotalCycles(), b.TotalAccesses())
		}
	}
}

// TestWarmParallelMatchesSequential verifies that warming the cache
// through the per-experiment fan-out yields the same stats as running
// each workload one at a time: the simulator is deterministic and runs
// are independent, so parallelism must be invisible in the numbers.
func TestWarmParallelMatchesSequential(t *testing.T) {
	seq := NewRunner(0.05, 1)
	par := NewRunner(0.05, 1)
	par.Workers = 4
	cfg := par.hybridConfig()
	fanned := par.runs(cfg)
	for i, w := range workloads.All() {
		a := seq.run(w, cfg)
		if !reflect.DeepEqual(a, fanned[i]) {
			t.Errorf("%s: parallel warm diverged from sequential (%d/%d vs %d/%d cycles/accesses)",
				w.Name, a.TotalCycles(), a.TotalAccesses(), fanned[i].TotalCycles(), fanned[i].TotalAccesses())
		}
	}
}

// TestRunTraceSpans: a traced runner records one experiments.run span per
// cached run under its parent span, forming a valid tree whose
// deterministic projection is identical at any worker count.
func TestRunTraceSpans(t *testing.T) {
	one, four := sweeps()
	var a, b bytes.Buffer
	if err := trace.WriteSpans(&a, one.spans); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSpans(&b, four.spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("span tree differs between 1 and 4 workers")
	}

	root, err := trace.BuildTree(one.spans)
	if err != nil {
		t.Fatalf("span tree invalid: %v", err)
	}
	if root.Name != "experiments.test" {
		t.Fatalf("root span %q", root.Name)
	}
	runs := 0
	for _, s := range one.spans {
		if s.Name == "experiments.run" {
			runs++
			if s.Parent != root.ID || s.Attrs["workload"] == "" || s.Attrs["design"] == "" {
				t.Fatalf("experiments.run misplaced or missing attrs: %+v", s)
			}
		}
	}
	if want := len(one.r.cache); runs != want {
		t.Fatalf("got %d experiments.run spans, want one per cached run (%d)", runs, want)
	}
}

// TestEqualConfigsShareARun: the threshold sweep's 85/400 point is the
// hybrid design point, so Figure 10 afterwards simulates nothing new.
func TestEqualConfigsShareARun(t *testing.T) {
	r := NewRunner(0.05, 1)
	ThresholdSweep(r)
	runs := len(r.cache)
	Figure10(r)
	if len(r.cache) != runs {
		t.Fatalf("Figure 10 after the threshold sweep added %d runs, want 0", len(r.cache)-runs)
	}
}

// TestRunConcurrentDuplicates hammers one configuration from many
// goroutines; the in-flight deduplication must produce one simulation
// and identical results for every caller.
func TestRunConcurrentDuplicates(t *testing.T) {
	r := NewRunner(0.05, 1)
	w, err := workloads.ByName("WP")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	results := make([]int64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.run(w, r.baseConfig()).TotalCycles()
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d saw different cycles: %d vs %d", i, results[i], results[0])
		}
	}
	if len(r.cache) != 1 {
		t.Fatalf("cache holds %d runs, want 1", len(r.cache))
	}
}
