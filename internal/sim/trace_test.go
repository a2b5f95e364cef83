package sim

import (
	"strings"
	"testing"

	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
	"pilotrf/internal/profile"
)

func tracedKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("traced", 6)
	b.S2R(isa.R(0), isa.SRTid)
	b.SHLI(isa.R(1), isa.R(0), 2)
	b.LDG(isa.R(2), isa.R(1), 0)
	b.IADD(isa.R(3), isa.R(2), isa.R(0))
	b.STG(isa.R(1), 0, isa.R(3))
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
}

func TestRingTracerCapturesPipelineFlow(t *testing.T) {
	tracer := NewRingTracer(4096)
	cfg := testConfig()
	cfg.Tracer = tracer
	mustRun(t, cfg, tracedKernel(t))

	ev := tracer.Events()
	if len(ev) == 0 {
		t.Fatal("no events recorded")
	}
	// One CTA launch, one warp retirement, one pilot completion.
	if got := tracer.CountKind(TraceCTALaunch); got != 1 {
		t.Errorf("CTA launches = %d, want 1", got)
	}
	if got := tracer.CountKind(TraceWarpRetire); got != 1 {
		t.Errorf("warp retirements = %d, want 1", got)
	}
	// Six instructions issued.
	if got := tracer.CountKind(TraceIssue); got != 6 {
		t.Errorf("issues = %d, want 6", got)
	}
	// Memory: one LDG + one STG.
	if got := tracer.CountKind(TraceMemStart); got != 2 {
		t.Errorf("memory starts = %d, want 2", got)
	}
	if got := tracer.CountKind(TraceMemDone); got != 2 {
		t.Errorf("memory completions = %d, want 2", got)
	}
	// Every non-control instruction dispatches exactly once (5 here).
	if got := tracer.CountKind(TraceDispatch); got != 5 {
		t.Errorf("dispatches = %d, want 5", got)
	}
}

func TestTraceEventOrdering(t *testing.T) {
	tracer := NewRingTracer(4096)
	cfg := testConfig()
	cfg.Tracer = tracer
	mustRun(t, cfg, tracedKernel(t))

	// Cycles must be non-decreasing, and the pipeline order must hold
	// per kind: first issue <= first dispatch <= first writeback.
	var prev int64 = -1
	first := map[TraceKind]int64{}
	for _, e := range tracer.Events() {
		if e.Cycle < prev {
			t.Fatalf("trace cycles went backwards: %d after %d", e.Cycle, prev)
		}
		prev = e.Cycle
		if _, seen := first[e.Kind]; !seen {
			first[e.Kind] = e.Cycle
		}
	}
	if !(first[TraceIssue] <= first[TraceDispatch] && first[TraceDispatch] <= first[TraceWriteback]) {
		t.Errorf("pipeline order violated: issue@%d dispatch@%d writeback@%d",
			first[TraceIssue], first[TraceDispatch], first[TraceWriteback])
	}
}

func TestTraceBankPartitions(t *testing.T) {
	tracer := NewRingTracer(8192)
	// A kernel touching both default-FRF registers (R0-R3) and
	// default-SRF registers (R4, R5).
	b := kernel.NewBuilder("parts", 6)
	b.MOVI(isa.R(0), 1)
	b.MOVI(isa.R(4), 2)
	b.IADD(isa.R(5), isa.R(0), isa.R(4))
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
	cfg := schemeConfig(t, "part")
	cfg.Profiling = profile.TechniqueStaticFirstN
	cfg.Tracer = tracer
	mustRun(t, cfg, k)
	sawFRF, sawSRF := false, false
	for _, e := range tracer.Events() {
		if e.Kind != TraceBankAccess {
			continue
		}
		if strings.Contains(e.Detail, "FRF") {
			sawFRF = true
		}
		if strings.Contains(e.Detail, "SRF") {
			sawSRF = true
		}
	}
	if !sawFRF || !sawSRF {
		t.Errorf("bank trace missing partitions: FRF=%v SRF=%v", sawFRF, sawSRF)
	}
}

func TestRingTracerEviction(t *testing.T) {
	tr := NewRingTracer(3)
	for i := 0; i < 5; i++ {
		tr.Event(TraceEvent{Cycle: int64(i)})
	}
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("ring holds %d, want 3", len(ev))
	}
	if ev[0].Cycle != 2 || ev[2].Cycle != 4 {
		t.Errorf("ring contents = %v, want cycles 2..4", ev)
	}
}

func TestRingTracerPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRingTracer(0)
}

func TestWriterTracerFormat(t *testing.T) {
	var sb strings.Builder
	wt := &WriterTracer{W: &sb}
	wt.Event(TraceEvent{Cycle: 7, SM: 0, Kind: TraceIssue, Warp: 3, PC: 12, Detail: "IADD R0, R1, R2"})
	// Events are buffered until Flush.
	if sb.Len() != 0 {
		t.Errorf("writer emitted %q before Flush", sb.String())
	}
	if err := wt.Flush(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "issue") || !strings.Contains(out, "IADD") {
		t.Errorf("writer output = %q", out)
	}
}

func TestTracingDoesNotChangeResults(t *testing.T) {
	k := tracedKernel(t)
	plain := mustRun(t, testConfig(), k)
	cfg := testConfig()
	cfg.Tracer = NewRingTracer(64)
	traced := mustRun(t, cfg, k)
	if plain.Cycles != traced.Cycles || plain.RegReads != traced.RegReads {
		t.Error("tracing perturbed the simulation")
	}
}
