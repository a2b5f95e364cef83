package pilotrf

import (
	"testing"

	"pilotrf/internal/regfile"
)

// quickOpts keeps facade tests fast: small grids, one SM.
func quickOpts(scheme string, p Technique) Options {
	return Options{SMs: 1, Scheme: scheme, Profiling: p, Scale: 0.15}
}

func TestPaperOptionsSelectPaperDesign(t *testing.T) {
	s, err := NewSimulator(PaperOptions())
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if s.opts.Scheme != "part-adaptive" || s.opts.Profiling != ProfileHybrid {
		t.Errorf("paper options = %v/%v, want paper design point", s.opts.Scheme, s.opts.Profiling)
	}
	if s.opts.SMs != 2 || s.opts.Scale != 1 || s.opts.Knobs != (DesignKnobs{}) {
		t.Errorf("paper options = %+v", s.opts)
	}
	if cfg := s.Config(); cfg.RF.Design != regfile.DesignPartitionedAdaptive || cfg.RF.FRFRegs != 4 || cfg.Policy != SchedulerGTO {
		t.Errorf("paper options run %v with %d FRF registers under %v, want the adaptive FRF with 4 under GTO",
			cfg.RF.Design, cfg.RF.FRFRegs, cfg.Policy)
	}
}

func TestZeroOptionsAreBaseline(t *testing.T) {
	s, err := NewSimulator(Options{})
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if s.opts.Scheme != "mrf-stv" || s.opts.Profiling != ProfileStaticFirstN {
		t.Errorf("zero options = %v/%v, want the natural baseline", s.opts.Scheme, s.opts.Profiling)
	}
	if cfg := s.Config(); cfg.RF.Design != regfile.DesignMonolithicSTV || cfg.Policy != SchedulerLRR {
		t.Errorf("zero options run %v under %v, want MRF@STV under LRR", cfg.RF.Design, cfg.Policy)
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 17 {
		t.Fatalf("Benchmarks lists %d names, want 17", len(names))
	}
	cat, err := BenchmarkCategory("LIB")
	if err != nil || cat != 3 {
		t.Errorf("BenchmarkCategory(LIB) = %d, %v", cat, err)
	}
	if _, err := BenchmarkCategory("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunBenchmarkEndToEnd(t *testing.T) {
	s, err := NewSimulator(quickOpts("part-adaptive", ProfileHybrid))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	res, err := s.RunBenchmark("backprop")
	if err != nil {
		t.Fatalf("RunBenchmark: %v", err)
	}
	if res.Cycles() <= 0 {
		t.Error("no cycles")
	}
	if res.FRFShare() <= 0.3 {
		t.Errorf("FRF share = %.2f, want substantial", res.FRFShare())
	}
	if s := res.DynamicSavings(); s <= 0.2 || s >= 0.8 {
		t.Errorf("dynamic savings = %.2f, want meaningful", s)
	}
	if res.TopNShare(4) <= res.TopNShare(3) {
		t.Error("top-N shares not monotone")
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	s, _ := NewSimulator(quickOpts("mrf-stv", ProfileStaticFirstN))
	if _, err := s.RunBenchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestBaselineHasNoFRF(t *testing.T) {
	s, _ := NewSimulator(quickOpts("mrf-stv", ProfileStaticFirstN))
	res, err := s.RunBenchmark("BFS")
	if err != nil {
		t.Fatalf("RunBenchmark: %v", err)
	}
	if res.FRFShare() != 0 {
		t.Errorf("monolithic design has FRF share %.2f", res.FRFShare())
	}
	if res.DynamicSavings() > 0.01 {
		t.Errorf("baseline vs itself saves %.2f", res.DynamicSavings())
	}
}

func TestCustomKernelViaBuilder(t *testing.T) {
	b := NewKernelBuilder("custom", 8)
	b.S2R(R(0), SRTid)
	b.MOVI(R(4), 0)
	b.CountedLoop(R(1), P(0), 10, func() {
		b.IADD(R(4), R(4), R(0))
	})
	b.STG(R(0), 0, R(4))
	b.EXIT()
	prog, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s, _ := NewSimulator(quickOpts("part", ProfilePilot))
	res, err := s.RunKernels("custom", []Kernel{{Prog: prog, ThreadsPerCTA: 64, NumCTAs: 4}})
	if err != nil {
		t.Fatalf("RunKernels: %v", err)
	}
	if res.Cycles() <= 0 {
		t.Error("custom kernel did not run")
	}
}

func TestConfigEscapeHatch(t *testing.T) {
	s, _ := NewSimulator(quickOpts("part-adaptive", ProfileHybrid))
	s.Config().MemLatency = 400
	res, err := s.RunBenchmark("BFS")
	if err != nil {
		t.Fatalf("RunBenchmark: %v", err)
	}
	s2, _ := NewSimulator(quickOpts("part-adaptive", ProfileHybrid))
	res2, err := s2.RunBenchmark("BFS")
	if err != nil {
		t.Fatalf("RunBenchmark: %v", err)
	}
	if res.Cycles() <= res2.Cycles() {
		t.Error("doubling memory latency did not slow the run")
	}
}

func TestRunAll(t *testing.T) {
	s, _ := NewSimulator(Options{SMs: 1, Scheme: "mrf-stv", Profiling: ProfileStaticFirstN, Scale: 0.05})
	all, err := s.RunAll()
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(all) != 17 {
		t.Fatalf("RunAll returned %d results", len(all))
	}
	for name, res := range all {
		if res.Cycles() <= 0 {
			t.Errorf("%s: no cycles", name)
		}
	}
}

func TestAssembleFacade(t *testing.T) {
	src := `
.kernel facade
.regs 6
    S2R  R0, SR_TID
    MOVI R4, 0
    IADD R4, R4, R0
    STG  [R0+0], R4
    EXIT
`
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if err := CheckReconvergence(prog); err != nil {
		t.Fatalf("CheckReconvergence: %v", err)
	}
	text := AssemblyText(prog)
	back, err := Assemble(text)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Len() != prog.Len() {
		t.Error("round trip changed the program")
	}
	s, _ := NewSimulator(quickOpts("part", ProfilePilot))
	res, err := s.RunKernels("facade", []Kernel{{Prog: prog, ThreadsPerCTA: 64, NumCTAs: 2}})
	if err != nil {
		t.Fatalf("RunKernels: %v", err)
	}
	if res.Cycles() <= 0 {
		t.Error("assembled kernel did not run")
	}
}

func TestTracerFacade(t *testing.T) {
	s, _ := NewSimulator(quickOpts("part-adaptive", ProfileHybrid))
	tr := NewRingTracer(1024)
	s.Config().Tracer = tr
	if _, err := s.RunBenchmark("WP"); err != nil {
		t.Fatalf("RunBenchmark: %v", err)
	}
	if len(tr.Events()) == 0 {
		t.Error("no trace events captured through the facade")
	}
}

func TestDesignComparison(t *testing.T) {
	run := func(scheme string, p Technique) Result {
		s, err := NewSimulator(quickOpts(scheme, p))
		if err != nil {
			t.Fatalf("NewSimulator: %v", err)
		}
		res, err := s.RunBenchmark("srad")
		if err != nil {
			t.Fatalf("RunBenchmark: %v", err)
		}
		return res
	}
	base := run("mrf-stv", ProfileStaticFirstN)
	ntv := run("mrf-ntv", ProfileStaticFirstN)
	part := run("part-adaptive", ProfileHybrid)
	if ntv.Cycles() <= base.Cycles() {
		t.Error("NTV should be slower than STV")
	}
	if part.DynamicSavings() <= 0 {
		t.Error("partitioned design should save dynamic energy")
	}
	if part.Energy.LeakageMW >= base.Energy.LeakageMW {
		t.Error("partitioned design should leak less")
	}
}
