package sim

import (
	"errors"
	"fmt"
	"testing"

	"pilotrf/internal/energy"
	"pilotrf/internal/fault"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
	"pilotrf/internal/regfile"
	"pilotrf/internal/stats"
	"pilotrf/internal/workloads"
)

// TestFaultDisabledZeroPerturbation is the acceptance property: a config
// with injection disabled — whether Fault is nil, the rate is zero, or a
// protection scheme is selected without any faults — must produce
// bit-identical results to the plain baseline.
func TestFaultDisabledZeroPerturbation(t *testing.T) {
	for _, d := range []regfile.Design{regfile.DesignPartitioned, regfile.DesignPartitionedAdaptive} {
		base := schemeConfig(t, schemeName(d))

		zeroRate := base
		zeroRate.Fault = &fault.Config{Rate: 0, Seed: 9}

		protected := base
		protected.Protect = fault.PaperScheme()

		w := workloads.All()[0].Scale(0.05)
		run := func(cfg Config) RunStats {
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := g.RunKernels(w.Name, w.Kernels)
			if err != nil {
				t.Fatal(err)
			}
			return rs
		}
		plain := run(base)
		for name, cfg := range map[string]Config{"zero-rate": zeroRate, "protect-only": protected} {
			got := run(cfg)
			if plain.TotalCycles() != got.TotalCycles() {
				t.Errorf("%s/%s: cycles %d != baseline %d", d, name, got.TotalCycles(), plain.TotalCycles())
			}
			if plain.PartAccesses() != got.PartAccesses() {
				t.Errorf("%s/%s: partition accesses diverge", d, name)
			}
			for i := range got.Kernels {
				if got.Kernels[i].WarpInstrs != plain.Kernels[i].WarpInstrs {
					t.Errorf("%s/%s: kernel %d warp instrs diverge", d, name, i)
				}
			}
			if ft := got.FaultTotals(); ft.TotalInjected() != 0 || ft.SilentReads != 0 {
				t.Errorf("%s/%s: fault outcomes counted without injection: %+v", d, name, ft)
			}
		}
	}
}

// TestFaultTickZeroAlloc asserts the per-cycle fault hook allocates
// nothing when the process is armed but never fires (rate zero) — the
// cost of carrying an injector through a fault-free run.
func TestFaultTickZeroAlloc(t *testing.T) {
	cfg := testConfig()
	cfg.Fault = &fault.Config{Rate: 0, Seed: 1}
	ks := KernelStats{RegHist: stats.NewHistogram(4)}
	run := &runState{cfg: &cfg, kern: benchKernel(t), stats: &ks}
	s, err := newSM(0, &cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	s.launchCTA(0)
	if s.inj == nil {
		t.Fatal("no injector despite Config.Fault")
	}
	if a := testing.AllocsPerRun(1000, func() {
		s.faultTick()
		s.now++
	}); a != 0 {
		t.Errorf("armed-idle faultTick allocates %.1f per cycle, want 0", a)
	}
}

// digestRun drives one SM through a small kernel with a digest probe
// attached, optionally corrupting state at a chosen cycle, and returns
// the probe for golden-vs-faulty comparison.
func digestRun(t *testing.T, corrupt func(s *sm)) *fault.DigestProbe {
	t.Helper()
	probe := fault.NewDigestProbe()
	cfg := testConfig()
	cfg.Record = probe
	k := straightLine(t, 10) // 4 regs: R0/R1 read hot, R2 dst-only, R3 dead
	ks := KernelStats{RegHist: stats.NewHistogram(k.Prog.NumRegs)}
	run := &runState{cfg: &cfg, kern: k, stats: &ks}
	probe.Record(flightrec.Event{Kind: flightrec.KindKernelBegin, SM: -1})
	s, err := newSM(0, &cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	s.launchCTA(0)
	for s.busy() {
		if corrupt != nil && s.now == 10 {
			corrupt(s)
		}
		s.tick()
	}
	s.recordChecksum()
	return probe
}

// TestSDCClassificationLiveVsDeadRegister is the acceptance test for the
// SDC discriminator: an undetected bit flip in a register the program
// still reads must diverge the dataflow digest (silent data corruption),
// while the same flip in a dead register must not (masked).
func TestSDCClassificationLiveVsDeadRegister(t *testing.T) {
	golden := digestRun(t, nil)

	live := digestRun(t, func(s *sm) {
		s.applyCellFault(fault.CellFault{
			Warp: 0, Reg: isa.R(0), Lane: 2, Bit: 7,
			Kind: fault.KindTransient, Part: regfile.PartMRF, Cycle: s.now,
		})
	})
	if kernel, div := live.Diverged(golden); !div {
		t.Error("flip in a live register did not diverge the digest (missed SDC)")
	} else if kernel != 0 {
		t.Errorf("divergence attributed to kernel %d, want 0", kernel)
	}

	dead := digestRun(t, func(s *sm) {
		s.applyCellFault(fault.CellFault{
			Warp: 0, Reg: isa.R(3), Lane: 2, Bit: 7,
			Kind: fault.KindTransient, Part: regfile.PartMRF, Cycle: s.now,
		})
	})
	if !dead.Equal(golden) {
		t.Error("flip in a dead register diverged the digest (should be masked)")
	}
}

// TestCAMUpsetTraceDetail aims a CAM shot through sm.inject on an
// unprotected swapping table and checks the corrupted entry and the
// wording of the tracer event that reports it.
func TestCAMUpsetTraceDetail(t *testing.T) {
	cfg := schemeConfig(t, "part")
	cfg.Fault = &fault.Config{Rate: 0, Seed: 5}
	ring := NewRingTracer(8)
	cfg.Tracer = ring
	k := wideKernel(t, 4)
	ks := KernelStats{RegHist: stats.NewHistogram(k.Prog.NumRegs)}
	run := &runState{cfg: &cfg, kern: k, stats: &ks}
	s, err := newSM(0, &cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	cam := s.rf.SwapTable()
	cam.Configure([]isa.Reg{isa.R(4), isa.R(5)}, cfg.RF.FRFRegs)
	before := cam.Entries()

	const bit = 7
	s.inject(fault.Shot{Target: fault.TargetCAM, Bit: bit}, false)
	if st := s.inj.Stats(); st.CAMCorrupted != 1 {
		t.Fatalf("CAMCorrupted = %d, want 1", st.CAMCorrupted)
	}
	entry := -1
	for i, e := range cam.Entries() {
		if e != before[i] {
			entry = i
		}
	}
	if entry < 0 {
		t.Fatal("CAM shot changed no entry")
	}
	evs := ring.Events()
	if len(evs) != 1 {
		t.Fatalf("traced %d events, want 1: %v", len(evs), evs)
	}
	want := fmt.Sprintf("CAM upset entry %d bit %d", entry, bit)
	if e := evs[0]; e.Kind != TraceModeSwitch || e.Warp != -1 || e.PC != -1 || e.Detail != want {
		t.Errorf("traced %v, want a mode-switch event %q", e, want)
	}
}

// wideKernel uses 8 architectural registers — twice the default FRF
// capacity of 4 — so whichever registers the profiler promotes, four
// always live in the SRF where nearly all strikes land (the SRF is 7x
// larger and 25x more vulnerable than the FRF). Reads and writes rotate
// over every register so SRF-resident cells are consumed constantly.
func wideKernel(t *testing.T, adds int) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("wide", 8)
	for r := 0; r < 8; r++ {
		b.MOVI(isa.R(r), int32(r+1))
	}
	for i := 0; i < adds; i++ {
		b.IADD(isa.R((i+1)%8), isa.R(i%8), isa.R((i+3)%8))
	}
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 64, NumCTAs: 2}
}

// faultyRun executes the wide kernel under injection and returns the
// stats, error, and digest probe.
func faultyRun(t *testing.T, cfg Config, adds int) (KernelStats, error, *fault.DigestProbe) {
	t.Helper()
	probe := fault.NewDigestProbe()
	cfg.Record = probe
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := g.RunKernel(wideKernel(t, adds))
	return ks, err, probe
}

// TestSECDEDCorrectsTransparently: with every partition under SECDED and
// transient-only strikes, the run must complete without error, count
// corrections, keep the exact cycle count of a fault-free run, and keep
// the dataflow digest equal to golden — correction is invisible.
func TestSECDEDCorrectsTransparently(t *testing.T) {
	base := schemeConfig(t, "part")
	goldenKS, err, golden := faultyRun(t, base, 30)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Protect = fault.FullSECDED()
	cfg.Fault = &fault.Config{Rate: 1e-9, Seed: 11, StuckAtFrac: -1, ReadPathFrac: -1}
	ks, err, probe := faultyRun(t, cfg, 30)
	if err != nil {
		t.Fatalf("SECDED run aborted: %v", err)
	}
	if ks.Fault.TotalInjected() == 0 {
		t.Fatal("no faults injected at a rate chosen to produce strikes")
	}
	if ks.Fault.Corrected == 0 {
		t.Error("no corrections despite transient strikes under SECDED")
	}
	if ks.Fault.SilentReads != 0 || ks.Fault.Unrecoverable != 0 {
		t.Errorf("SECDED leaked outcomes: %+v", ks.Fault)
	}
	if ks.Cycles != goldenKS.Cycles {
		t.Errorf("SECDED perturbed timing: %d cycles vs golden %d", ks.Cycles, goldenKS.Cycles)
	}
	if !probe.Equal(golden) {
		t.Error("SECDED run's dataflow digest diverged from golden")
	}
}

// TestParityReadPathRetrySucceeds: read-path strikes under parity are
// detected, the warp re-issues, and the retried read observes clean
// data — so the digest stays golden while retries cost cycles.
func TestParityReadPathRetrySucceeds(t *testing.T) {
	base := schemeConfig(t, "part")
	goldenKS, err, golden := faultyRun(t, base, 30)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Protect = fault.FullParity()
	cfg.Fault = &fault.Config{Rate: 1e-9, Seed: 13, StuckAtFrac: -1, ReadPathFrac: 1}
	ks, err, probe := faultyRun(t, cfg, 30)
	if err != nil {
		t.Fatalf("read-path parity run aborted: %v", err)
	}
	if ks.Fault.RetrySuccess == 0 || ks.Fault.DetectedRetry == 0 {
		t.Errorf("no successful retries recorded: %+v", ks.Fault)
	}
	if !probe.Equal(golden) {
		t.Error("retried reads corrupted the dataflow digest")
	}
	if ks.Cycles < goldenKS.Cycles {
		t.Errorf("retries cannot make the run faster: %d vs %d", ks.Cycles, goldenKS.Cycles)
	}
}

// TestParityStuckAtExhaustsRetries: a stuck-at cell under parity is
// detected on every read but never corrected; retries exhaust and the
// kernel aborts with the structured unrecoverable error, not a panic.
func TestParityStuckAtExhaustsRetries(t *testing.T) {
	cfg := schemeConfig(t, "part")
	cfg.Protect = fault.FullParity()
	cfg.Fault = &fault.Config{Rate: 2e-9, Seed: 17, StuckAtFrac: 1, ReadPathFrac: -1}
	ks, err, _ := faultyRun(t, cfg, 40)
	if err == nil {
		t.Fatal("stuck-at saturation under parity did not abort the kernel")
	}
	var ue *fault.UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("abort error %v is not an UnrecoverableError", err)
	}
	if !ue.Kind.StuckAt() {
		t.Errorf("aborting fault kind = %v, want stuck-at", ue.Kind)
	}
	if ks.Fault.Unrecoverable == 0 {
		t.Error("abort not counted in Stats.Unrecoverable")
	}
	if ks.Fault.DetectedRetry <= uint64(fault.MaxRetries) {
		t.Errorf("retries before abort = %d, want > %d", ks.Fault.DetectedRetry, fault.MaxRetries)
	}
}

// TestUnprotectedSilentCorruption: with no protection, strikes on read
// registers are consumed silently and the digest diverges — the SDC
// outcome the campaign classifier keys on.
func TestUnprotectedSilentCorruption(t *testing.T) {
	base := schemeConfig(t, "part")
	_, err, golden := faultyRun(t, base, 30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Fault = &fault.Config{Rate: 1e-9, Seed: 19, StuckAtFrac: -1, ReadPathFrac: -1}
	ks, err, probe := faultyRun(t, cfg, 30)
	if err != nil {
		t.Fatalf("unprotected run errored: %v", err)
	}
	if ks.Fault.SilentReads == 0 {
		t.Fatal("no silent reads despite unprotected strikes")
	}
	if probe.Equal(golden) {
		t.Error("silently consumed corruption did not diverge the digest")
	}
}

// TestProtectionOverheadConservation: with a scheme selected and the
// ledger attached, every access to a protected partition must carry
// exactly one check-bit charge, the extended conservation check must
// pass, and the priced overhead must be positive.
func TestProtectionOverheadConservation(t *testing.T) {
	for _, d := range []regfile.Design{regfile.DesignPartitioned, regfile.DesignPartitionedAdaptive} {
		led := energy.NewLedger(d, 0)
		cfg := schemeConfig(t, schemeName(d))
		cfg.Energy = led
		cfg.Protect = fault.PaperScheme()
		var parts [4]uint64
		var cycles int64
		for _, w := range workloads.All()[:3] {
			w = w.Scale(0.05)
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := g.RunKernels(w.Name, w.Kernels)
			if err != nil {
				t.Fatalf("%s/%s: %v", d, w.Name, err)
			}
			for p, n := range rs.PartAccesses() {
				parts[p] += n
			}
			cycles += rs.TotalCycles()
		}
		if err := led.CheckConservation(parts, cycles); err != nil {
			t.Errorf("%s: %v", d, err)
		}
		if led.OverheadPJ() <= 0 {
			t.Errorf("%s: protection overhead energy = %v, want > 0", d, led.OverheadPJ())
		}
		if got := led.OverheadTotals(); got[regfile.PartSRF] != parts[regfile.PartSRF] {
			t.Errorf("%s: SRF overhead charges %d != %d accesses", d, got[regfile.PartSRF], parts[regfile.PartSRF])
		}
	}
}

// TestFaultConfigValidationSurfaces: invalid fault configs and split-FRF
// schemes must be rejected at GPU construction.
// TestCycleLimitAbortTypedAndDrained: the MaxCycles watchdog must
// surface as a typed ErrCycleLimit (so fault campaigns can classify
// fault-induced runaway loops as corrupted execution) and must still
// drain the aborted kernel's counters — cycle count included — instead
// of returning hollow stats.
func TestCycleLimitAbortTypedAndDrained(t *testing.T) {
	cfg := schemeConfig(t, "part-adaptive")
	cfg.MaxCycles = 10
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := g.RunKernel(wideKernel(t, 200))
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("err = %v, want ErrCycleLimit", err)
	}
	if ks.Cycles <= cfg.MaxCycles {
		t.Fatalf("aborted kernel's cycles not drained: %d", ks.Cycles)
	}
}

func TestFaultConfigValidationSurfaces(t *testing.T) {
	cfg := testConfig()
	cfg.Fault = &fault.Config{Rate: -1}
	if _, err := New(cfg); err == nil {
		t.Error("negative fault rate accepted")
	}
	cfg = testConfig()
	cfg.Protect = fault.Scheme{regfile.PartFRFHigh: fault.ProtectParity}
	if _, err := New(cfg); err == nil {
		t.Error("split-FRF protection scheme accepted")
	}
}
