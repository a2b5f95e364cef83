package ref

import (
	"fmt"
	"testing"

	"pilotrf/internal/asm"
	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
	"pilotrf/internal/sim"
	"pilotrf/internal/workloads"
)

func TestSimpleKernelCounts(t *testing.T) {
	b := kernel.NewBuilder("simple", 4)
	b.MOVI(isa.R(0), 1)
	b.MOVI(isa.R(1), 2)
	b.IADD(isa.R(2), isa.R(0), isa.R(1))
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 64, NumCTAs: 2}
	res, err := Run(k, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// 2 CTAs x 2 warps x 4 instructions.
	if res.WarpInstrs != 16 {
		t.Errorf("WarpInstrs = %d, want 16", res.WarpInstrs)
	}
	if res.ThreadInstrs != 2*64*4 {
		t.Errorf("ThreadInstrs = %d, want %d", res.ThreadInstrs, 2*64*4)
	}
	// Per warp: 2 reads (IADD), 3 writes.
	if res.RegReads != 8 || res.RegWrites != 12 {
		t.Errorf("accesses = %d/%d, want 8/12", res.RegReads, res.RegWrites)
	}
}

func TestBarrierRoundRobin(t *testing.T) {
	b := kernel.NewBuilder("bar", 4)
	b.S2R(isa.R(0), isa.SRTid)
	b.BAR()
	b.IADDI(isa.R(1), isa.R(0), 1)
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 128, NumCTAs: 1}
	res, err := Run(k, 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.WarpInstrs != 4*4 {
		t.Errorf("WarpInstrs = %d, want 16", res.WarpInstrs)
	}
}

func TestInvalidKernelRejected(t *testing.T) {
	b := kernel.NewBuilder("k", 4)
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 0, NumCTAs: 1}
	if _, err := Run(k, 1); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

// divergentExit exercises the case that once held a simulator bug: a
// divergent path that exits entirely must not disturb the reconvergence
// entry's program counter.
func divergentExitKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("divexit", 6)
	b.S2R(isa.R(0), isa.SRLane)
	b.SETPI(isa.P(0), isa.R(0), isa.CmpLT, 8)
	b.If(isa.P(0), false, func() {
		b.EXIT() // lanes 0..7 exit inside the divergent path
	})
	b.MOVI(isa.R(1), 42) // lanes 8..31 must execute this
	b.IADD(isa.R(2), isa.R(1), isa.R(1))
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
}

func TestDivergentExit(t *testing.T) {
	res, err := Run(divergentExitKernel(t), 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// S2R 32 + SETPI 32 + BRA 32 + EXIT 8 + MOVI 24 + IADD 24 + EXIT 24.
	if want := uint64(32 + 32 + 32 + 8 + 24 + 24 + 24); res.ThreadInstrs != want {
		t.Errorf("ThreadInstrs = %d, want %d", res.ThreadInstrs, want)
	}
}

// TestSELWithPTSelectsRa runs a SEL whose selector is PT, which the
// assembler accepts, on both engines. PT reads true, so every lane must
// select Ra. The kernel checks itself: a lane whose R2 differs from R0
// exits before the store, and the thread-instruction counts show it.
func TestSELWithPTSelectsRa(t *testing.T) {
	prog, err := asm.Assemble(`
		.kernel sel-pt
		.regs 3
		S2R R0, SR_TID
		MOVI R1, -1
		SEL R2, R0, R1, PT
		SETP.NE P0, R2, R0
		@P0 EXIT
		STG [R0+0], R2
		EXIT`)
	if err != nil {
		t.Fatal(err)
	}
	k := &kernel.Kernel{Prog: prog, ThreadsPerCTA: 64, NumCTAs: 2}
	const want = 7 * 64 * 2 // every thread runs all seven instructions
	refRes, err := Run(k, 1)
	if err != nil {
		t.Fatalf("ref: %v", err)
	}
	if refRes.ThreadInstrs != want {
		t.Errorf("ref: %d thread instructions, want %d", refRes.ThreadInstrs, want)
	}
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 1
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simKS, err := g.RunKernel(k)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if simKS.ThreadInstrs != want {
		t.Errorf("sim: %d thread instructions, want %d", simKS.ThreadInstrs, want)
	}
}

// TestFloatResultsMatchSimulator runs FADD, FMUL and FFMA on two NaN
// operands, and one FFMA whose fused result (2^-24) differs from its
// rounded one (0), on both engines. Each kernel checks itself: a lane
// whose result differs from the expected bits exits before the store,
// and the thread-instruction counts show it. The NaN results take the
// first NaN operand's payload, quieted (FFMA's product reads b before
// a); the FFMA rounds its product before the sum.
func TestFloatResultsMatchSimulator(t *testing.T) {
	for _, c := range []struct {
		op      string
		a, b, c uint32
		want    uint32
	}{
		{"FADD R3, R1, R2", 0x7F800001, 0x7F800002, 0, 0x7FC00001},
		{"FMUL R3, R1, R2", 0x7F800001, 0x7F800002, 0, 0x7FC00001},
		{"FFMA R3, R1, R2, R4", 0x7F800001, 0x7F800002, 0, 0x7FC00002},
		{"FFMA R3, R1, R2, R4", 0x3F800800, 0x3F800800, 0xBF801000, 0},
	} {
		prog, err := asm.Assemble(fmt.Sprintf(`
			.kernel float-result
			.regs 6
			S2R R0, SR_TID
			MOVI R1, %#x
			MOVI R2, %#x
			MOVI R4, %#x
			%s
			MOVI R5, %#x
			SETP.NE P0, R3, R5
			@P0 EXIT
			STG [R0+0], R3
			EXIT`, c.a, c.b, c.c, c.op, c.want))
		if err != nil {
			t.Fatal(err)
		}
		k := &kernel.Kernel{Prog: prog, ThreadsPerCTA: 64, NumCTAs: 2}
		const want = 10 * 64 * 2 // every thread runs all ten instructions
		refRes, err := Run(k, 1)
		if err != nil {
			t.Fatalf("ref: %v", err)
		}
		if refRes.ThreadInstrs != want {
			t.Errorf("ref: %s on %#x, %#x, %#x is not %#x", c.op, c.a, c.b, c.c, c.want)
		}
		cfg := sim.DefaultConfig()
		cfg.NumSMs = 1
		g, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		simKS, err := g.RunKernel(k)
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		if simKS.ThreadInstrs != want {
			t.Errorf("sim: %s on %#x, %#x, %#x is not %#x", c.op, c.a, c.b, c.c, c.want)
		}
	}
}

// TestFallOffTheEndRejected: a program whose last instruction is
// guarded lets the lanes that skip it run past the end. Both engines
// once indexed pc = len and panicked in Program.At; both must refuse the
// kernel with an error instead. The assembler rejects the program, so
// it is built by dropping an assembled variant's closing EXIT.
func TestFallOffTheEndRejected(t *testing.T) {
	prog, err := asm.Assemble(`
		.kernel t
		.regs 10
		S2R R0, SR_TID
		IMAD R2, R0, R0, R0
		@P0 EXIT
		EXIT`)
	if err != nil {
		t.Fatal(err)
	}
	prog.Instrs = prog.Instrs[:3]
	k := &kernel.Kernel{Prog: prog, ThreadsPerCTA: 64, NumCTAs: 2}
	if _, err := Run(k, 1); err == nil {
		t.Error("ref ran a program that falls off its end")
	}
	g, err := sim.New(sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunKernel(k); err == nil {
		t.Error("sim ran a program that falls off its end")
	}
}

// The central differential test: the cycle-level simulator and the
// reference interpreter must agree exactly on every functional count for
// every bundled workload — warp instructions, active-lane counts,
// register accesses, and the full per-register histogram.
func TestDifferentialAgainstSimulator(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 2 // multi-SM must not change functional behaviour
	for _, w := range workloads.All() {
		w := w.Scale(0.1)
		g, err := sim.New(cfg)
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		for ki := range w.Kernels {
			k := &w.Kernels[ki]
			simKS, err := g.RunKernel(k)
			if err != nil {
				t.Fatalf("%s/%s: sim: %v", w.Name, k.Prog.Name, err)
			}
			refRes, err := Run(k, cfg.Seed)
			if err != nil {
				t.Fatalf("%s/%s: ref: %v", w.Name, k.Prog.Name, err)
			}
			if simKS.WarpInstrs != refRes.WarpInstrs {
				t.Errorf("%s/%s: warp instrs sim=%d ref=%d",
					w.Name, k.Prog.Name, simKS.WarpInstrs, refRes.WarpInstrs)
			}
			if simKS.ThreadInstrs != refRes.ThreadInstrs {
				t.Errorf("%s/%s: thread instrs sim=%d ref=%d",
					w.Name, k.Prog.Name, simKS.ThreadInstrs, refRes.ThreadInstrs)
			}
			if simKS.RegReads != refRes.RegReads || simKS.RegWrites != refRes.RegWrites {
				t.Errorf("%s/%s: accesses sim=%d/%d ref=%d/%d",
					w.Name, k.Prog.Name, simKS.RegReads, simKS.RegWrites, refRes.RegReads, refRes.RegWrites)
			}
			for reg := 0; reg < k.Prog.NumRegs; reg++ {
				if s, r := simKS.RegHist.Count(reg), refRes.RegHist.Count(reg); s != r {
					t.Errorf("%s/%s: R%d accesses sim=%d ref=%d", w.Name, k.Prog.Name, reg, s, r)
				}
			}
		}
	}
}

// The differential result must hold regardless of the RF design,
// scheduler, or profiling technique — those are timing features, never
// functional ones.
func TestDifferentialAcrossConfigs(t *testing.T) {
	w, err := workloads.ByName("MUM") // the divergence-heavy worst case
	if err != nil {
		t.Fatal(err)
	}
	w = w.Scale(0.1)
	k := &w.Kernels[0]
	refRes, err := Run(k, sim.DefaultConfig().Seed)
	if err != nil {
		t.Fatalf("ref: %v", err)
	}
	for _, pol := range []sim.Policy{sim.PolicyLRR, sim.PolicyGTO, sim.PolicyTL, sim.PolicyFetchGroup} {
		cfg := sim.DefaultConfig()
		cfg.NumSMs = 1
		cfg.Policy = pol
		g, err := sim.New(cfg)
		if err != nil {
			t.Fatalf("sim.New: %v", err)
		}
		ks, err := g.RunKernel(k)
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if ks.ThreadInstrs != refRes.ThreadInstrs || ks.RegReads != refRes.RegReads {
			t.Errorf("%v: functional counts diverged from the reference", pol)
		}
	}
}

func TestDivergentExitDifferential(t *testing.T) {
	k := divergentExitKernel(t)
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 1
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simKS, err := g.RunKernel(k)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	refRes, err := Run(k, cfg.Seed)
	if err != nil {
		t.Fatalf("ref: %v", err)
	}
	if simKS.ThreadInstrs != refRes.ThreadInstrs {
		t.Errorf("divergent exit: sim=%d ref=%d thread instrs", simKS.ThreadInstrs, refRes.ThreadInstrs)
	}
}
