package sim

import (
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
	"pilotrf/internal/profile"
	"pilotrf/internal/ref"
	"pilotrf/internal/regfile"
)

// testConfig returns a small, fast configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSMs = 1
	return cfg
}

// schemeConfig returns testConfig reconfigured for the named design
// scheme at its default knobs.
func schemeConfig(t testing.TB, name string) Config {
	t.Helper()
	sch := design.MustLookup(name)
	cfg, err := testConfig().WithScheme(sch, sch.DefaultKnobs())
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func mustRun(t *testing.T, cfg Config, k *kernel.Kernel) KernelStats {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ks, err := g.RunKernel(k)
	if err != nil {
		t.Fatalf("RunKernel: %v", err)
	}
	return ks
}

// straightLine builds a kernel of `adds` dependent IADDs and an EXIT.
func straightLine(t *testing.T, adds int) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("straight", 4)
	b.MOVI(isa.R(0), 1)
	b.MOVI(isa.R(1), 2)
	for i := 0; i < adds; i++ {
		b.IADD(isa.R(2), isa.R(0), isa.R(1))
	}
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 64, NumCTAs: 2}
}

func TestStraightLineCompletes(t *testing.T) {
	ks := mustRun(t, testConfig(), straightLine(t, 10))
	if ks.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	// 2 CTAs x 2 warps x 13 instructions.
	if want := uint64(2 * 2 * 13); ks.WarpInstrs != want {
		t.Errorf("WarpInstrs = %d, want %d", ks.WarpInstrs, want)
	}
	// Thread instrs: 64 threads per CTA fully active.
	if want := uint64(2 * 64 * 13); ks.ThreadInstrs != want {
		t.Errorf("ThreadInstrs = %d, want %d", ks.ThreadInstrs, want)
	}
}

func TestRegisterAccessAccounting(t *testing.T) {
	ks := mustRun(t, testConfig(), straightLine(t, 10))
	// Per warp: 2 MOVI writes + 10 IADD x (2 reads + 1 write).
	warps := uint64(4)
	if want := warps * 20; ks.RegReads != want {
		t.Errorf("RegReads = %d, want %d", ks.RegReads, want)
	}
	if want := warps * 12; ks.RegWrites != want {
		t.Errorf("RegWrites = %d, want %d", ks.RegWrites, want)
	}
	// Every counted access must have been serviced by a partition.
	var serviced uint64
	for _, v := range ks.PartAccesses {
		serviced += v
	}
	if serviced != ks.TotalAccesses() {
		t.Errorf("partition accesses %d != counted accesses %d", serviced, ks.TotalAccesses())
	}
}

func TestRegHistMatchesProgram(t *testing.T) {
	ks := mustRun(t, testConfig(), straightLine(t, 5))
	// R0: 1 write + 5 reads = 6 per warp; 4 warps.
	if got := ks.RegHist.Count(0); got != 24 {
		t.Errorf("R0 accesses = %d, want 24", got)
	}
	if got := ks.RegHist.Count(2); got != 20 {
		t.Errorf("R2 accesses = %d, want 20 (5 writes x 4 warps)", got)
	}
}

// loopKernel: each thread loops `trips` times.
func loopKernel(t *testing.T, trips int32) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("loop", 6)
	b.MOVI(isa.R(0), 0)
	b.CountedLoop(isa.R(1), isa.P(0), trips, func() {
		b.IADDI(isa.R(0), isa.R(0), 1)
	})
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
}

func TestLoopTripCount(t *testing.T) {
	ks := mustRun(t, testConfig(), loopKernel(t, 7))
	// Per warp: MOVI + MOVI(ctr) + 7x(IADDI + IADDI + SETPI + BRA) + EXIT = 31.
	if want := uint64(31); ks.WarpInstrs != want {
		t.Errorf("WarpInstrs = %d, want %d", ks.WarpInstrs, want)
	}
}

// divergentKernel: lanes < 8 take the then-branch, the rest the else.
func divergentKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("diverge", 6)
	b.S2R(isa.R(0), isa.SRLane)
	b.SETPI(isa.P(0), isa.R(0), isa.CmpLT, 8)
	b.IfElse(isa.P(0),
		func() { b.MOVI(isa.R(1), 111) },
		func() { b.MOVI(isa.R(1), 222) },
	)
	b.STG(isa.R(0), 0, isa.R(1))
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
}

func TestDivergenceBothPathsExecute(t *testing.T) {
	ks := mustRun(t, testConfig(), divergentKernel(t))
	// Thread-instruction count proves both sides ran with partial
	// masks: S2R(32) + SETPI(32) + BRA(32) + MOVI(8) + BRA(8, then-exit)
	// + MOVI(24) + STG(32) + EXIT(32) = 200.
	if want := uint64(200); ks.ThreadInstrs != want {
		t.Errorf("ThreadInstrs = %d, want %d", ks.ThreadInstrs, want)
	}
}

func TestDivergentLoopReconverges(t *testing.T) {
	// Each lane loops lane%4+1 times: heavy divergence on the back edge.
	b := kernel.NewBuilder("divloop", 8)
	b.S2R(isa.R(0), isa.SRLane)
	b.ANDI(isa.R(1), isa.R(0), 3)
	b.IADDI(isa.R(1), isa.R(1), 1) // bound = lane%4 + 1
	b.RegCountedLoop(isa.R(2), isa.P(0), isa.R(1), func() {
		b.IADDI(isa.R(3), isa.R(3), 1)
	})
	b.STG(isa.R(0), 0, isa.R(3)) // all 32 lanes must reconverge here
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
	ks := mustRun(t, testConfig(), k)
	if ks.Cycles <= 0 {
		t.Fatal("did not complete")
	}
	// STG must execute with the full warp: find its thread count.
	// Loop iterations: lanes run 1,2,3,4,... -> per 4 lanes 10 iters,
	// 32 lanes -> 80 iterations total.
	// ThreadInstrs: S2R 32 + ANDI 32 + IADDI 32 + MOVI 32 +
	// (IADDI+IADDI+SETP+BRA) x 80... the BRA executes per iteration
	// with the live mask; exact bookkeeping is the simulator's job —
	// assert the final STG and EXIT ran with all 32 lanes by checking
	// the total is consistent with full reconvergence:
	// prologue 4x32=128, loop body 4 ops x (32+24+16+8)=320, STG 32,
	// EXIT 32 => 512.
	if want := uint64(512); ks.ThreadInstrs != want {
		t.Errorf("ThreadInstrs = %d, want %d (reconvergence broken?)", ks.ThreadInstrs, want)
	}
}

func TestGuardedExit(t *testing.T) {
	// Half the lanes exit early; the rest keep working, then exit.
	b := kernel.NewBuilder("gexit", 6)
	b.S2R(isa.R(0), isa.SRLane)
	b.SETPI(isa.P(0), isa.R(0), isa.CmpLT, 16)
	b.Guarded(isa.P(0), false, func() { b.EXIT() })
	b.MOVI(isa.R(1), 5)
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
	ks := mustRun(t, testConfig(), k)
	// S2R 32 + SETPI 32 + EXIT 32(issued with 32 active, 16 exiting)
	// + MOVI 16 + EXIT 16 = 128.
	if want := uint64(128); ks.ThreadInstrs != want {
		t.Errorf("ThreadInstrs = %d, want %d", ks.ThreadInstrs, want)
	}
}

func barrierKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("barrier", 6)
	b.S2R(isa.R(0), isa.SRTid)
	b.STS(isa.R(0), 0, isa.R(0))
	b.BAR()
	b.LDS(isa.R(1), isa.R(0), 4)
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 128, NumCTAs: 2}
}

func TestBarrierCompletes(t *testing.T) {
	ks := mustRun(t, testConfig(), barrierKernel(t))
	if ks.Cycles <= 0 {
		t.Fatal("barrier kernel did not complete")
	}
	// 2 CTAs x 4 warps x 5 instructions.
	if want := uint64(40); ks.WarpInstrs != want {
		t.Errorf("WarpInstrs = %d, want %d", ks.WarpInstrs, want)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.RF = regfile.DefaultConfig(regfile.DesignPartitionedAdaptive)
	k := divergentKernel(t)
	a := mustRun(t, cfg, k)
	b := mustRun(t, cfg, k)
	if a.Cycles != b.Cycles || a.RegReads != b.RegReads || a.PartAccesses != b.PartAccesses {
		t.Errorf("same-config runs differ: %+v vs %+v", a, b)
	}
}

func TestNTVSlowerThanSTV(t *testing.T) {
	k := straightLine(t, 40)
	stv := mustRun(t, schemeConfig(t, "mrf-stv"), k)
	ntv := mustRun(t, schemeConfig(t, "mrf-ntv"), k)
	if ntv.Cycles <= stv.Cycles {
		t.Errorf("NTV (%d cycles) not slower than STV (%d)", ntv.Cycles, stv.Cycles)
	}
}

// hotRegKernel concentrates accesses on R4/R5 (not in the default FRF).
func hotRegKernel(t *testing.T, ctas int) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("hot", 8)
	b.MOVI(isa.R(4), 0)
	b.MOVI(isa.R(5), 3)
	b.CountedLoop(isa.R(6), isa.P(0), 30, func() {
		b.IADD(isa.R(4), isa.R(4), isa.R(5))
		b.IADD(isa.R(4), isa.R(4), isa.R(5))
	})
	b.STG(isa.R(4), 0, isa.R(5))
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 64, NumCTAs: ctas}
}

func TestPartitionedRoutesToSRFWithoutProfiling(t *testing.T) {
	cfg := schemeConfig(t, "part")
	cfg.Profiling = profile.TechniqueStaticFirstN
	ks := mustRun(t, cfg, hotRegKernel(t, 2))
	frf := ks.PartAccesses[regfile.PartFRFHigh] + ks.PartAccesses[regfile.PartFRFLow]
	srf := ks.PartAccesses[regfile.PartSRF]
	if frf >= srf {
		t.Errorf("static-first-n on a R4/R5-hot kernel: FRF %d >= SRF %d", frf, srf)
	}
}

func TestHybridProfilingLiftsFRFShare(t *testing.T) {
	cfg := schemeConfig(t, "part")
	cfg.Profiling = profile.TechniqueStaticFirstN
	static := mustRun(t, cfg, hotRegKernel(t, 8))
	cfg.Profiling = profile.TechniqueHybrid
	hybrid := mustRun(t, cfg, hotRegKernel(t, 8))
	if hybrid.FRFShare() <= static.FRFShare() {
		t.Errorf("hybrid FRF share %.3f not above static %.3f", hybrid.FRFShare(), static.FRFShare())
	}
	if hybrid.FRFShare() < 0.5 {
		t.Errorf("hybrid FRF share %.3f too low for a hot-register kernel", hybrid.FRFShare())
	}
}

func TestOracleAtLeastAsGoodAsPilot(t *testing.T) {
	k := hotRegKernel(t, 8)
	base := mustRun(t, testConfig(), k)
	top := base.RegHist.TopN(4)
	oracle := make([]isa.Reg, len(top))
	for i, kv := range top {
		oracle[i] = isa.Reg(kv.Key)
	}
	cfg := schemeConfig(t, "part")
	cfg.Profiling = profile.TechniqueOracle
	cfg.Oracle = oracle
	o := mustRun(t, cfg, k)
	cfg.Profiling = profile.TechniquePilot
	cfg.Oracle = nil
	p := mustRun(t, cfg, k)
	if o.FRFShare()+1e-9 < p.FRFShare() {
		t.Errorf("oracle FRF share %.3f below pilot %.3f", o.FRFShare(), p.FRFShare())
	}
}

func TestPilotFractionSmallWithManyCTAs(t *testing.T) {
	cfg := schemeConfig(t, "part")
	cfg.Profiling = profile.TechniqueHybrid
	few := mustRun(t, cfg, hotRegKernel(t, 2))
	many := mustRun(t, cfg, hotRegKernel(t, 64))
	if many.PilotFraction >= few.PilotFraction {
		t.Errorf("pilot fraction did not shrink with more CTAs: %.3f vs %.3f", many.PilotFraction, few.PilotFraction)
	}
	if many.PilotFraction <= 0 || many.PilotFraction > 1 {
		t.Errorf("pilot fraction = %.3f out of range", many.PilotFraction)
	}
}

// memStallKernel alternates loads and thin compute so the SM idles.
func memStallKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("memstall", 8)
	b.S2R(isa.R(0), isa.SRTid)
	b.SHLI(isa.R(1), isa.R(0), 2)
	b.CountedLoop(isa.R(2), isa.P(0), 10, func() {
		b.LDG(isa.R(3), isa.R(1), 0)
		b.IADD(isa.R(4), isa.R(4), isa.R(3))
	})
	b.STG(isa.R(1), 0, isa.R(4))
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 2}
}

func TestAdaptiveFRFLowModeOnMemoryStalls(t *testing.T) {
	cfg := schemeConfig(t, "part-adaptive")
	ks := mustRun(t, cfg, memStallKernel(t))
	if ks.LowEpochFraction <= 0 {
		t.Error("memory-stalled kernel never entered low-power epochs")
	}
	if ks.PartAccesses[regfile.PartFRFLow] == 0 {
		t.Error("no FRF accesses serviced in low-power mode")
	}
}

func TestAdaptiveOffNeverUsesLowMode(t *testing.T) {
	cfg := schemeConfig(t, "part")
	ks := mustRun(t, cfg, memStallKernel(t))
	if ks.PartAccesses[regfile.PartFRFLow] != 0 {
		t.Error("non-adaptive design used FRF low mode")
	}
}

func TestSchedulerPoliciesAllComplete(t *testing.T) {
	for _, pol := range []Policy{PolicyLRR, PolicyGTO, PolicyTL, PolicyFetchGroup} {
		cfg := testConfig()
		cfg.Policy = pol
		ks := mustRun(t, cfg, memStallKernel(t))
		if ks.Cycles <= 0 {
			t.Errorf("%v: did not complete", pol)
		}
	}
}

func TestRFCHitsAndMRFTraffic(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = PolicyTL
	cfg.RF.RFCEntries = 6
	ks := mustRun(t, cfg, hotRegKernel(t, 4))
	if ks.RFC.ReadHits == 0 {
		t.Error("RFC never hit on a register-hot kernel")
	}
	if ks.RFC.HitRate() <= 0.2 {
		t.Errorf("RFC hit rate %.3f suspiciously low for a tiny working set", ks.RFC.HitRate())
	}
	// MRF partition accesses = read misses + dirty writebacks routed to
	// the banks.
	if ks.PartAccesses[regfile.PartMRF] == 0 {
		t.Error("no MRF traffic behind the RFC")
	}
}

// TestTwoLevelRetireFlushesDirtyRFC: under the two-level scheduler a
// retiring warp is demoted after its CTA has freed its slots, and the
// demotion flushes the warp's dirty RFC entry to the banks. That write
// once dereferenced the freed slot's nil warp. The kernel must run
// under both RFC schemes, at pilotasm's default geometry and at 64
// threads x 2 CTAs, with the reference interpreter's counts.
func TestTwoLevelRetireFlushesDirtyRFC(t *testing.T) {
	b := kernel.NewBuilder("t", 1)
	b.S2R(isa.R(0), isa.SRTid)
	b.EXIT()
	prog := b.MustBuild()
	for _, name := range []string{"rfc", "rfc-hints"} {
		sch := design.MustLookup(name)
		cfg, err := DefaultConfig().WithScheme(sch, sch.DefaultKnobs())
		if err != nil {
			t.Fatal(err)
		}
		for _, geo := range [][2]int{{256, 32}, {64, 2}} {
			k := &kernel.Kernel{Prog: prog, ThreadsPerCTA: geo[0], NumCTAs: geo[1]}
			ks := mustRun(t, cfg, k)
			want, err := ref.Run(k, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if ks.WarpInstrs != want.WarpInstrs || ks.ThreadInstrs != want.ThreadInstrs ||
				ks.RegReads != want.RegReads || ks.RegWrites != want.RegWrites {
				t.Errorf("%s %dx%d: sim %d/%d/%d/%d, ref %d/%d/%d/%d", name, geo[0], geo[1],
					ks.WarpInstrs, ks.ThreadInstrs, ks.RegReads, ks.RegWrites,
					want.WarpInstrs, want.ThreadInstrs, want.RegReads, want.RegWrites)
			}
		}
	}
}

func TestPartialWarp(t *testing.T) {
	// 61 threads/CTA (sad's geometry): last warp has 29 lanes.
	b := kernel.NewBuilder("partial", 4)
	b.S2R(isa.R(0), isa.SRTid)
	b.IADDI(isa.R(1), isa.R(0), 1)
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 61, NumCTAs: 1}
	ks := mustRun(t, testConfig(), k)
	if want := uint64(61 * 3); ks.ThreadInstrs != want {
		t.Errorf("ThreadInstrs = %d, want %d", ks.ThreadInstrs, want)
	}
}

func TestCTAWavesExceedCapacity(t *testing.T) {
	// 1024 threads/CTA = 32 warps: at most 2 resident CTAs per SM, so
	// 8 CTAs run in waves.
	b := kernel.NewBuilder("big", 4)
	b.S2R(isa.R(0), isa.SRTid)
	b.IADDI(isa.R(1), isa.R(0), 1)
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 1024, NumCTAs: 8}
	ks := mustRun(t, testConfig(), k)
	if want := uint64(8 * 32 * 3); ks.WarpInstrs != want {
		t.Errorf("WarpInstrs = %d, want %d", ks.WarpInstrs, want)
	}
}

func TestPerWarpHistCollection(t *testing.T) {
	cfg := testConfig()
	cfg.CollectPerWarpCTAs = 1
	ks := mustRun(t, cfg, straightLine(t, 5))
	if len(ks.PerWarpHist) == 0 {
		t.Fatal("no per-warp histograms collected")
	}
	for id, h := range ks.PerWarpHist {
		if h.Total() == 0 {
			t.Errorf("warp %d histogram empty", id)
		}
	}
}

// TestKeplerConfigMatchesTable2 pins the full-chip configuration to the
// paper's Table II.
func TestKeplerConfigMatchesTable2(t *testing.T) {
	cfg := KeplerConfig()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"SMs", cfg.NumSMs, 15},
		{"warps per SM", cfg.WarpSlotsPerSM, 64},
		{"RF banks", cfg.RF.Banks, 24},
		{"operand collector units", cfg.OperandCollectors, 24},
		{"schedulers", cfg.Schedulers, 4},
		{"issue width", cfg.MaxIssuePerCycle(), 8},
		{"warp-register budget (256KB/128B)", cfg.WarpRegBudget, 2048},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.Schedulers = 0
	if _, err := New(bad); err == nil {
		t.Error("accepted zero schedulers")
	}
	bad = testConfig()
	bad.WarpSlotsPerSM = 63 // not divisible by 4 schedulers
	if _, err := New(bad); err == nil {
		t.Error("accepted non-divisible warp slots")
	}
	// A scheduler parks its warps in a 64-bit mask.
	bad = testConfig()
	bad.WarpSlotsPerSM, bad.Schedulers = 128, 1
	if _, err := New(bad); err == nil {
		t.Error("accepted 128 warp slots on one scheduler")
	}
	// Figure 13's single-scheduler point runs 64 slots on one scheduler.
	good := testConfig()
	good.WarpSlotsPerSM, good.Schedulers = 64, 1
	if _, err := New(good); err != nil {
		t.Errorf("rejected 64 warp slots on one scheduler: %v", err)
	}
	// The SM marks its busy banks in a 64-bit mask.
	bad = testConfig()
	bad.RF.Banks = 65
	if _, err := New(bad); err == nil {
		t.Error("accepted 65 RF banks")
	}
	good = testConfig()
	good.RF.Banks = 64
	if _, err := New(good); err != nil {
		t.Errorf("rejected 64 RF banks: %v", err)
	}
	// The register file's own rules (regfile.Config.Validate) apply.
	bad = schemeConfig(t, "part")
	bad.RF.RFCEntries = 6
	if _, err := New(bad); err == nil {
		t.Error("accepted RFC in front of a partitioned RF")
	}
	// Every event fires at least one cycle after it is scheduled.
	for name, set := range map[string]func(*Config){
		"ALU":      func(c *Config) { c.ALULatency = 0 },
		"FPU":      func(c *Config) { c.FPULatency = 0 },
		"SFU":      func(c *Config) { c.SFULatency = -1 },
		"shared":   func(c *Config) { c.SharedLatency = 0 },
		"memory":   func(c *Config) { c.MemLatency = 0 },
		"MRF":      func(c *Config) { c.RF.Lat.MRF = 0 },
		"FRF high": func(c *Config) { c.RF.Lat.FRFHigh = 0 },
		"FRF low":  func(c *Config) { c.RF.Lat.FRFLow = 0 },
		"SRF":      func(c *Config) { c.RF.Lat.SRF = 0 },
	} {
		bad = schemeConfig(t, "part-adaptive")
		set(&bad)
		if _, err := New(bad); err == nil {
			t.Errorf("accepted a zero-cycle %s latency", name)
		}
	}
}

func TestKernelTooBigRejected(t *testing.T) {
	b := kernel.NewBuilder("fat", 60)
	b.MOVI(isa.R(59), 1)
	b.EXIT()
	// 60 regs x 32 warps = 1920 warp-regs, fits; but 33 warps would
	// not. Use 1024 threads (32 warps) x 60 regs = 1920 <= 2048: fits.
	// Force failure with a custom tiny budget.
	cfg := testConfig()
	cfg.WarpRegBudget = 50
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 64, NumCTAs: 1}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := g.RunKernel(k); err == nil {
		t.Error("oversized kernel accepted")
	}
}

func TestRunKernelsSequence(t *testing.T) {
	g, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rs, err := g.RunKernels("pair", []kernel.Kernel{*straightLine(t, 3), *loopKernel(t, 2)})
	if err != nil {
		t.Fatalf("RunKernels: %v", err)
	}
	if len(rs.Kernels) != 2 {
		t.Fatalf("ran %d kernels", len(rs.Kernels))
	}
	if rs.TotalCycles() != rs.Kernels[0].Cycles+rs.Kernels[1].Cycles {
		t.Error("TotalCycles mismatch")
	}
	if rs.TotalAccesses() == 0 {
		t.Error("no accesses recorded")
	}
}

// TestShuffleButterflyReduction checks SHFL's cross-lane semantics with
// the classic log2(32) butterfly sum: after five xor-shuffle-add rounds
// every lane holds the warp-wide sum of the lane ids (0+1+...+31 = 496).
func TestShuffleButterflyReduction(t *testing.T) {
	b := kernel.NewBuilder("butterfly", 8)
	b.S2R(isa.R(0), isa.SRLane)
	b.MOV(isa.R(1), isa.R(0)) // accumulator starts as the lane id
	for delta := int32(16); delta >= 1; delta /= 2 {
		// R2 = laneID ^ delta; R3 = partner's accumulator; R1 += R3.
		b.MOVI(isa.R(4), delta)
		b.XOR(isa.R(2), isa.R(0), isa.R(4))
		b.SHFL(isa.R(3), isa.R(1), isa.R(2))
		b.IADD(isa.R(1), isa.R(1), isa.R(3))
	}
	// Lanes holding the wrong sum take a divergent path we can observe
	// in the thread-instruction count.
	b.SETPI(isa.P(0), isa.R(1), isa.CmpNE, 496)
	b.Guarded(isa.P(0), false, func() {
		b.MOVI(isa.R(5), 1) // executed only on failure
	})
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
	ks := mustRun(t, testConfig(), k)
	// Register writes: S2R + MOV + 5 rounds x (MOVI, XOR, SHFL, IADD).
	// The guarded failure MOVI is fully squashed — and therefore never
	// writes the RF — iff the butterfly produced 496 in every lane.
	want := uint64(2 + 5*4)
	if ks.RegWrites != want {
		t.Errorf("RegWrites = %d, want %d (butterfly sum wrong in some lane)", ks.RegWrites, want)
	}
}

func TestMoreSMsRunFasterOnWideGrids(t *testing.T) {
	k := hotRegKernel(t, 32)
	one := testConfig()
	two := testConfig()
	two.NumSMs = 2
	a := mustRun(t, one, k)
	b := mustRun(t, two, k)
	if b.Cycles >= a.Cycles {
		t.Errorf("2 SMs (%d cycles) not faster than 1 SM (%d)", b.Cycles, a.Cycles)
	}
}
