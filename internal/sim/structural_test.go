package sim

import (
	"testing"

	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
)

// Structural-hazard tests: the simulator must stay correct (and must
// terminate) when collectors, memory slots, or banks saturate.

// fatKernel issues many independent 3-source instructions so collector
// units saturate.
func fatKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("fat", 16)
	for r := 0; r < 8; r++ {
		b.MOVI(isa.R(r), int32(r))
	}
	for i := 0; i < 30; i++ {
		d := 8 + i%8
		b.IMAD(isa.R(d), isa.R(i%4), isa.R(4+i%4), isa.R(i%8))
	}
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 512, NumCTAs: 4}
}

func TestCollectorSaturation(t *testing.T) {
	cfg := testConfig()
	cfg.OperandCollectors = 2 // brutal structural pressure
	ks := mustRun(t, cfg, fatKernel(t))
	roomy := testConfig()
	ks2 := mustRun(t, roomy, fatKernel(t))
	if ks.WarpInstrs != ks2.WarpInstrs {
		t.Errorf("collector pressure changed instruction count: %d vs %d", ks.WarpInstrs, ks2.WarpInstrs)
	}
	if ks.Cycles <= ks2.Cycles {
		t.Errorf("2 collectors (%d cycles) should be slower than 24 (%d)", ks.Cycles, ks2.Cycles)
	}
}

// memBurst issues many concurrent loads so the memory pipe saturates.
func memBurst(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("burst", 16)
	b.S2R(isa.R(0), isa.SRTid)
	for i := 0; i < 10; i++ {
		b.LDG(isa.R(2+i), isa.R(0), int32(4*i))
	}
	b.IADD(isa.R(1), isa.R(2), isa.R(3))
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 512, NumCTAs: 4}
}

func TestMemoryBandwidthLimit(t *testing.T) {
	tight := testConfig()
	tight.MaxMemInflight = 1
	a := mustRun(t, tight, memBurst(t))
	loose := testConfig()
	loose.MaxMemInflight = 256
	b := mustRun(t, loose, memBurst(t))
	if a.WarpInstrs != b.WarpInstrs {
		t.Error("bandwidth limit changed functional behaviour")
	}
	if a.Cycles <= b.Cycles {
		t.Errorf("1 mem slot (%d cycles) should be slower than 256 (%d)", a.Cycles, b.Cycles)
	}
}

func TestFewBanksSlower(t *testing.T) {
	k := fatKernel(t)
	few := testConfig()
	few.RF.Banks = 2
	a := mustRun(t, few, k)
	many := testConfig()
	b := mustRun(t, many, k)
	if a.Cycles <= b.Cycles {
		t.Errorf("2 banks (%d cycles) should be slower than 24 (%d)", a.Cycles, b.Cycles)
	}
	// Access counts are a functional property.
	if a.TotalAccesses() != b.TotalAccesses() {
		t.Error("bank count changed access counts")
	}
}

func TestWritebackForwardingFaster(t *testing.T) {
	// A serial dependency chain: forwarding must shorten it.
	b := kernel.NewBuilder("chain", 4)
	b.MOVI(isa.R(0), 1)
	for i := 0; i < 40; i++ {
		b.IADDI(isa.R(0), isa.R(0), 1)
	}
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
	// Forwarding pays when the register write itself is slow: use the
	// NTV design (3-cycle accesses).
	off := schemeConfig(t, "mrf-ntv")
	slow := mustRun(t, off, k)
	on := schemeConfig(t, "mrf-ntv")
	on.WritebackForwarding = true
	fast := mustRun(t, on, k)
	if fast.Cycles >= slow.Cycles {
		t.Errorf("forwarding (%d cycles) not faster than none (%d)", fast.Cycles, slow.Cycles)
	}
	if fast.TotalAccesses() != slow.TotalAccesses() {
		t.Error("forwarding changed access counts")
	}
}

func TestObservabilityMetrics(t *testing.T) {
	// Collector stalls appear under structural pressure...
	tight := testConfig()
	tight.OperandCollectors = 2
	ks := mustRun(t, tight, fatKernel(t))
	if ks.CollectorStalls == 0 {
		t.Error("no collector stalls under 2-collector pressure")
	}
	// ...and the divergence-free kernel runs at full SIMT efficiency.
	if eff := ks.SIMTEfficiency(); eff != 1.0 {
		t.Errorf("SIMT efficiency = %.3f, want 1.0 for uniform code", eff)
	}
	// A divergent kernel runs below full efficiency.
	div := mustRun(t, testConfig(), divergentKernel(t))
	if eff := div.SIMTEfficiency(); eff >= 1.0 || eff <= 0.3 {
		t.Errorf("divergent SIMT efficiency = %.3f, want in (0.3, 1.0)", eff)
	}
	// Bank backlog is observable and sane.
	if ks.AvgBankQueue(tight.RF.Banks) < 0 {
		t.Error("negative bank queue")
	}
	if ks.AvgBankQueue(0) != 0 || (&KernelStats{}).SIMTEfficiency() != 0 {
		t.Error("zero-value metric guards broken")
	}
}

func TestIssueWidthMatters(t *testing.T) {
	k := fatKernel(t)
	narrow := testConfig()
	narrow.IssuePerScheduler = 1
	a := mustRun(t, narrow, k)
	wide := testConfig()
	b := mustRun(t, wide, k)
	if a.Cycles <= b.Cycles {
		t.Errorf("single-issue (%d cycles) should be slower than dual-issue (%d)", a.Cycles, b.Cycles)
	}
}

func TestZeroLaneInstructionSquashed(t *testing.T) {
	// An instruction fully predicated off must not touch the RF.
	b := kernel.NewBuilder("squash", 6)
	b.SETPI(isa.P(0), isa.R(0), isa.CmpGT, 100) // false everywhere (R0 = 0)
	b.Guarded(isa.P(0), false, func() {
		b.IADD(isa.R(1), isa.R(2), isa.R(3))
	})
	b.MOVI(isa.R(4), 1)
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
	ks := mustRun(t, testConfig(), k)
	// Accesses: SETPI reads R0 (1 read), MOVI writes R4 (1 write).
	// The squashed IADD contributes nothing.
	if ks.RegReads != 1 || ks.RegWrites != 1 {
		t.Errorf("accesses = %d/%d, want 1/1 (squashed instruction leaked)", ks.RegReads, ks.RegWrites)
	}
}

func TestBranchShadowBlocksIssue(t *testing.T) {
	// A tight dependent-branch loop: the warp cannot run ahead of its
	// branches, so cycles must be at least trips x branch latency.
	b := kernel.NewBuilder("bshadow", 4)
	b.MOVI(isa.R(0), 0)
	top := b.Here()
	b.IADDI(isa.R(0), isa.R(0), 1)
	b.SETPI(isa.P(0), isa.R(0), isa.CmpLT, 50)
	b.BraIf(isa.P(0), false, top)
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
	cfg := testConfig()
	ks := mustRun(t, cfg, k)
	if minimum := int64(50 * cfg.BranchLatency); ks.Cycles < minimum {
		t.Errorf("cycles = %d, below the branch-shadow floor %d", ks.Cycles, minimum)
	}
}
