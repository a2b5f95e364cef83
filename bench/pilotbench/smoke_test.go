package main

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"pilotrf/internal/trace"
)

// testEnv is a run environment with a budget short enough that every
// workload stops after its minimum sample count.
func testEnv(t *testing.T, traced bool) *env {
	t.Helper()
	e := &env{seed: 1, budget: time.Millisecond, tmp: t.TempDir(), cal: newCalibrator()}
	if traced {
		e.spans = trace.NewRecorder(true)
		e.root = e.spans.Root("pilotbench", trace.TraceID("pilotbench-test"), "test")
	}
	return e
}

func tinySuite(observed bool) suiteParams {
	p := detachedParams()
	if observed {
		p = observedParams()
	}
	p.scale, p.pins = 0.01, nil
	return p
}

func tinyCampaign() campaignParams {
	p := defaultCampaignParams()
	p.benchmarks = []string{"NN", "sgemm"}
	p.coldDesigns = []string{"part-adaptive"}
	p.warmDesigns = []string{"mrf-stv", "part-adaptive"}
	p.trials, p.scale, p.pins = 1, 0.01, nil
	return p
}

func tinyServe() serveParams {
	p := defaultServeParams()
	p.poolSize, p.verify, p.scale = 24, 2, 0.01
	return p
}

// buildPilotserve compiles cmd/pilotserve for the serve-closed smoke.
func buildPilotserve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pilotserve")
	out, err := exec.Command("go", "build", "-o", bin, "pilotrf/cmd/pilotserve").CombinedOutput()
	if err != nil {
		t.Skipf("cannot build pilotserve: %v\n%s", err, out)
	}
	return bin
}

// TestSmokeAllWorkloads runs every workload at a tiny size, untraced and
// (unless -short) traced, and checks that each run is correct and
// measures every metric BENCHMARK.json expects of it.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	bin := buildPilotserve(t)
	ctx := context.Background()
	tiny := map[string]runner{
		wDetached: func(ctx context.Context, e *env) (*outcome, error) { return runSuite(ctx, e, tinySuite(false)) },
		wObserved: func(ctx context.Context, e *env) (*outcome, error) { return runSuite(ctx, e, tinySuite(true)) },
		wCampaign: func(ctx context.Context, e *env) (*outcome, error) { return runCampaign(ctx, e, tinyCampaign()) },
		wServe: func(ctx context.Context, e *env) (*outcome, error) {
			e.pilotserve = bin
			return runServe(ctx, e, tinyServe())
		},
	}
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			e := testEnv(t, traced)
			t0 := time.Now()
			oc, err := tiny[w](ctx, e)
			t.Logf("%s traced=%v: %d operations in %v", w, traced, oc.attempted, time.Since(t0))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if oc.failed != 0 || oc.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", w, traced, oc.failed, oc.attempted, oc.problems)
			}
			mode := 0
			if traced {
				mode = 1
			}
			res := &result{Workload: w, Trace: mode, Correct: true, Attempted: oc.attempted, Metrics: oc.metrics}
			rl, err := reportLine(spec, res)
			if err != nil {
				t.Errorf("traced=%v: %v", traced, err)
			}
			// End-to-end metrics and per-layer times are never 0.
			for _, m := range spec.metrics(traced) {
				if v := rl.Metrics[m.Name].Value; v == 0 && (!traced || m.Unit == "ms" || m.Unit == "s") {
					t.Errorf("%s traced=%v: %s reads 0", w, traced, m.Name)
				}
			}
		}
	}
}

// TestPlantedDigestMismatch plants a wrong pinned digest and expects the
// run to count a failed operation.
func TestPlantedDigestMismatch(t *testing.T) {
	p := tinySuite(false)
	p.schemes = []string{"mrf-stv", "part-adaptive"}
	cells, err := buildCells(p)
	if err != nil {
		t.Fatal(err)
	}
	p.pins = map[string]string{}
	for i := range cells {
		d, err := detachedDigest(&cells[i])
		if err != nil {
			t.Fatal(err)
		}
		p.pins[pinKey(p.scale, &cells[i])] = d
	}
	oc, err := runSuite(context.Background(), testEnv(t, false), p)
	if err != nil || oc.failed != 0 {
		t.Fatalf("with correct pins: %v, %d failed: %v", err, oc.failed, oc.problems)
	}
	p.pins[pinKey(p.scale, &cells[3])] = "0123456789abcdef"
	oc, err = runSuite(context.Background(), testEnv(t, false), p)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(oc.failed) / float64(oc.attempted); oc.failed != 1 || frac <= 0 {
		t.Errorf("planted mismatch: %d of %d failed (%v), want exactly one", oc.failed, oc.attempted, oc.problems)
	}
}
