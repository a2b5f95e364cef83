package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strconv"
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/jobs"
	"pilotrf/internal/sim"
	"pilotrf/internal/trace"
	"pilotrf/internal/workloads"
)

// runTraced runs the test spec with a deterministic (no-wall) recorder
// and returns the span NDJSON bytes plus the report.
func runTraced(t *testing.T, workers int, cache *jobs.Cache) ([]byte, Report) {
	t.Helper()
	rec := trace.NewRecorder(false)
	rep, err := Run(context.Background(), testSpec(), Options{Pool: newPool(t, workers, nil), Cache: cache, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteSpans(&buf, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// TestCampaignSpanTreeWorkerCountInvariant pins the acceptance
// criterion: the span tree — ids, parentage, annotations — is
// byte-identical at one worker and at eight.
func TestCampaignSpanTreeWorkerCountInvariant(t *testing.T) {
	seq, _ := runTraced(t, 1, nil)
	par, _ := runTraced(t, 8, nil)
	if !bytes.Equal(seq, par) {
		t.Fatalf("span NDJSON differs between 1 and 8 workers:\n--- 1 ---\n%s\n--- 8 ---\n%s", seq, par)
	}
	spans, err := trace.ReadSpans(bytes.NewReader(seq))
	if err != nil {
		t.Fatal(err)
	}
	root, err := trace.BuildTree(spans)
	if err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	if root.Name != "campaign" {
		t.Fatalf("root span %q, want campaign", root.Name)
	}
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
	}
	// 1 campaign + phase.golden + phase.trials, 1 golden, 3 cells,
	// 9 trials, and pool.task spans for 1 golden + 9 trial tasks.
	want := map[string]int{
		"campaign": 1, "phase.golden": 1, "phase.trials": 1,
		"golden": 1, "cell": 3, "trial": 9, "pool.task": 10,
	}
	for name, n := range want {
		if counts[name] != n {
			t.Errorf("%d %s spans, want %d (all: %v)", counts[name], name, n, counts)
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "trial":
			if s.Attrs["outcome"] == "" {
				t.Fatalf("trial span missing outcome: %+v", s)
			}
		case "cell", "golden":
			if s.Attrs["cache"] != "miss" {
				t.Fatalf("cold-run %s span cache=%q, want miss", s.Name, s.Attrs["cache"])
			}
		}
	}
}

// TestCampaignTracingLeavesReportIdentical asserts tracing perturbs
// nothing: the report bytes with tracing on equal the untraced run's.
func TestCampaignTracingLeavesReportIdentical(t *testing.T) {
	plain, err := Run(context.Background(), testSpec(), Options{Pool: newPool(t, 2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	_, traced := runTraced(t, 2, nil)
	pb, _ := json.MarshalIndent(plain, "", "  ")
	tb, _ := json.MarshalIndent(traced, "", "  ")
	if !bytes.Equal(pb, tb) {
		t.Fatalf("tracing changed the report:\n--- plain\n%s\n--- traced\n%s", pb, tb)
	}
}

// TestCampaignTraceCacheAnnotations: a warm re-run flips the cell spans
// to cache=hit, drops the golden span (no cell needs it) and the
// phase/trial/pool spans (nothing recomputes), and still forms a valid
// tree with the same trace id.
func TestCampaignTraceCacheAnnotations(t *testing.T) {
	cache, err := jobs.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cold, coldRep := runTraced(t, 2, cache)
	warm, warmRep := runTraced(t, 2, cache)

	cb, _ := json.MarshalIndent(coldRep, "", "  ")
	wb, _ := json.MarshalIndent(warmRep, "", "  ")
	if !bytes.Equal(cb, wb) {
		t.Fatal("warm report differs from cold")
	}

	coldSpans, err := trace.ReadSpans(bytes.NewReader(cold))
	if err != nil {
		t.Fatal(err)
	}
	warmSpans, err := trace.ReadSpans(bytes.NewReader(warm))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.BuildTree(warmSpans); err != nil {
		t.Fatalf("warm tree invalid: %v", err)
	}
	if coldSpans[0].Trace != warmSpans[0].Trace {
		t.Fatal("trace id not stable across runs of the same spec")
	}
	for _, s := range warmSpans {
		switch s.Name {
		case "cell":
			if s.Attrs["cache"] != "hit" {
				t.Fatalf("warm %s span cache=%q, want hit", s.Name, s.Attrs["cache"])
			}
			if s.Attrs["masked"] == "" && s.Attrs["sdc"] == "" {
				t.Fatalf("warm cell span missing outcome attrs: %+v", s.Attrs)
			}
		case "golden", "trial", "pool.task", "phase.golden", "phase.trials":
			t.Fatalf("warm run recorded a %s span; nothing should be read or recompute", s.Name)
		}
	}
	// Cell spans are parented to the campaign root in both runs, so
	// their content-derived ids are stable cold→warm.
	coldIDs := map[string]bool{}
	for _, s := range coldSpans {
		if s.Name == "cell" {
			coldIDs[s.ID] = true
		}
	}
	for _, s := range warmSpans {
		if s.Name == "cell" && !coldIDs[s.ID] {
			t.Fatalf("warm cell span id %s absent from cold run", s.ID)
		}
	}
}

// TestCampaignTraceUnderParentContext: when ctx already carries a span
// (the job server's per-job root), the campaign span nests under it
// instead of rooting a new trace.
func TestCampaignTraceUnderParentContext(t *testing.T) {
	rec := trace.NewRecorder(false)
	root := rec.Root("job", trace.TraceID("campaign-parent-test"), "job-1")
	ctx := trace.NewContext(context.Background(), root.Context())
	if _, err := Run(ctx, testSpec(), Options{Pool: newPool(t, 2, nil)}); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := rec.Spans()
	node, err := trace.BuildTree(spans)
	if err != nil {
		t.Fatal(err)
	}
	if node.Name != "job" || len(node.Children) != 1 || node.Children[0].Name != "campaign" {
		t.Fatalf("campaign did not nest under job root: %+v", node)
	}
	if spans[0].Trace != trace.TraceID("campaign-parent-test") {
		t.Fatal("campaign spans did not inherit the parent trace id")
	}
}

// TestCampaignNoTraceNoRecorder: without a recorder or span context,
// Run records nothing and succeeds (the disabled path).
func TestCampaignNoTraceNoRecorder(t *testing.T) {
	if _, err := Run(context.Background(), testSpec(), Options{Pool: newPool(t, 1, nil)}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenRunsSchemeSettings: a scheme whose settings go beyond its
// base RF (rfc-hints: an RFC under the two-level scheduler in front of
// an NTV MRF) runs its golden reference with those settings. The golden
// span's cycles equal a direct WithScheme run and differ from mrf-ntv's.
func TestGoldenRunsSchemeSettings(t *testing.T) {
	spec := testSpec()
	spec.Designs = []string{"mrf-ntv", "rfc-hints"}
	spec.Protect = []string{"none"}
	spec.Trials = 1
	rec := trace.NewRecorder(false)
	if _, err := Run(context.Background(), spec, Options{Pool: newPool(t, 2, nil), Trace: rec}); err != nil {
		t.Fatal(err)
	}
	cycles := map[string]string{}
	for _, s := range rec.Spans() {
		if s.Name == "golden" {
			cycles[s.Attrs["design"]] = s.Attrs["cycles"]
		}
	}
	sch := design.MustLookup("rfc-hints")
	cfg, err := sim.DefaultConfig().WithScheme(sch, sch.DefaultKnobs())
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumSMs = spec.SMs
	w, err := workloads.ByName("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Scale(spec.Scale)
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := g.RunKernels(w.Name, w.Kernels)
	if err != nil {
		t.Fatal(err)
	}
	if want := strconv.FormatInt(rs.TotalCycles(), 10); cycles["rfc-hints"] != want {
		t.Errorf("rfc-hints golden ran %s cycles, a direct WithScheme run %s", cycles["rfc-hints"], want)
	}
	if cycles["rfc-hints"] == cycles["mrf-ntv"] {
		t.Errorf("rfc-hints golden ran as its base MRF: %s cycles, like mrf-ntv", cycles["rfc-hints"])
	}
}
