package profile

import (
	"testing"

	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
	"pilotrf/internal/regfile"
)

// loopProgram builds a kernel where R5 and R6 dominate dynamic accesses
// (inside a loop) while R0 and R1 dominate the static text.
func loopProgram(t *testing.T) *kernel.Program {
	t.Helper()
	b := kernel.NewBuilder("prof", 8)
	// Static-heavy prologue: R0, R1 appear often in code.
	for i := 0; i < 6; i++ {
		b.IADD(isa.R(0), isa.R(0), isa.R(1))
	}
	// Dynamic-heavy loop: R5, R6 appear in few instructions but run 50x.
	b.CountedLoop(isa.R(7), isa.P(0), 50, func() {
		b.IADD(isa.R(5), isa.R(5), isa.R(6))
	})
	b.EXIT()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestCompilerTopNReflectsStaticText(t *testing.T) {
	p := loopProgram(t)
	top := CompilerTopN(p, 2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	// R0 appears 12 times statically (6 x (dst+src)), more than any
	// loop register.
	if top[0] != isa.R(0) {
		t.Errorf("compiler top register = %s, want R0", top[0])
	}
}

func TestCountersPilotFiltering(t *testing.T) {
	c := NewCounters()
	c.StartKernel(3)
	c.OnAccess(3, isa.R(5)) // pilot
	c.OnAccess(4, isa.R(5)) // not pilot
	c.OnAccess(3, isa.R(6))
	if got := c.Count(isa.R(5)); got != 1 {
		t.Errorf("R5 count = %d, want 1 (non-pilot access leaked in)", got)
	}
	if got := c.Count(isa.R(6)); got != 1 {
		t.Errorf("R6 count = %d, want 1", got)
	}
}

func TestCountersMaskGatesRecording(t *testing.T) {
	c := NewCounters()
	// Before StartKernel the mask is clear.
	c.OnAccess(0, isa.R(1))
	if got := c.Count(isa.R(1)); got != 0 {
		t.Errorf("count before arm = %d", got)
	}
	c.StartKernel(0)
	c.OnAccess(0, isa.R(1))
	c.PilotExited()
	c.OnAccess(0, isa.R(1)) // after pilot exit: ignored
	if got := c.Count(isa.R(1)); got != 1 {
		t.Errorf("count = %d, want 1", got)
	}
	if c.Active() {
		t.Error("counters still active after pilot exit")
	}
	if c.PilotWarp() != -1 {
		t.Error("PilotWarp should report -1 when idle")
	}
}

func TestCountersSaturate(t *testing.T) {
	c := NewCounters()
	c.StartKernel(0)
	for i := 0; i < 70000; i++ {
		c.OnAccess(0, isa.R(2))
	}
	if got := c.Count(isa.R(2)); got != 65535 {
		t.Errorf("count = %d, want saturation at 65535", got)
	}
}

func TestCountersRearmClearsCounts(t *testing.T) {
	c := NewCounters()
	c.StartKernel(0)
	c.OnAccess(0, isa.R(1))
	c.PilotExited()
	c.StartKernel(5)
	if got := c.Count(isa.R(1)); got != 0 {
		t.Errorf("stale count survived re-arm: %d", got)
	}
	if c.PilotWarp() != 5 {
		t.Errorf("PilotWarp = %d, want 5", c.PilotWarp())
	}
}

func TestCountersTopN(t *testing.T) {
	c := NewCounters()
	c.StartKernel(0)
	for i := 0; i < 10; i++ {
		c.OnAccess(0, isa.R(7))
	}
	for i := 0; i < 5; i++ {
		c.OnAccess(0, isa.R(3))
	}
	c.OnAccess(0, isa.R(1))
	c.PilotExited()
	top := c.TopN(2)
	if len(top) != 2 || top[0] != isa.R(7) || top[1] != isa.R(3) {
		t.Errorf("TopN = %v, want [R7 R3]", top)
	}
}

func TestCountersStartKernelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCounters().StartKernel(-1)
}

func newController(t *testing.T, tech Technique) (*Controller, *regfile.SwapTable) {
	t.Helper()
	st, err := regfile.NewSwapTable(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(tech, 4, st)
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

func TestControllerCompilerSeedsAtLaunch(t *testing.T) {
	p := loopProgram(t)
	c, st := newController(t, TechniqueCompiler)
	c.KernelLaunch(p, 0)
	// R0 and R1 are already FRF residents; the compiler's other picks
	// get promoted. Key property: compiler top regs all route to FRF.
	for _, r := range CompilerTopN(p, 4) {
		if int(st.Lookup(r)) >= 4 {
			t.Errorf("compiler top register %s not in FRF", r)
		}
	}
}

func TestControllerPilotIdentityUntilDone(t *testing.T) {
	p := loopProgram(t)
	c, st := newController(t, TechniquePilot)
	c.KernelLaunch(p, 2)
	// Identity before the pilot completes.
	if got := st.Lookup(isa.R(5)); got != isa.R(5) {
		t.Errorf("pre-pilot mapping moved R5 to %s", got)
	}
	// Simulate the pilot's dynamic accesses: R5/R6 dominate.
	for i := 0; i < 100; i++ {
		c.OnRegAccess(2, isa.R(5))
		c.OnRegAccess(2, isa.R(6))
	}
	c.OnRegAccess(2, isa.R(0))
	c.OnWarpComplete(1) // not the pilot: no effect
	if c.PilotDone() {
		t.Fatal("non-pilot completion marked pilot done")
	}
	c.OnWarpComplete(2)
	if !c.PilotDone() {
		t.Fatal("pilot completion not detected")
	}
	if int(st.Lookup(isa.R(5))) >= 4 || int(st.Lookup(isa.R(6))) >= 4 {
		t.Error("pilot top registers not promoted to FRF")
	}
}

func TestControllerHybridSeedsThenReplaces(t *testing.T) {
	p := loopProgram(t)
	c, st := newController(t, TechniqueHybrid)
	c.KernelLaunch(p, 0)
	// Seeded with the compiler profile at launch.
	for _, r := range CompilerTopN(p, 4) {
		if int(st.Lookup(r)) >= 4 {
			t.Errorf("hybrid seed missing compiler register %s", r)
		}
	}
	// The pilot finds R5/R6 hot.
	for i := 0; i < 100; i++ {
		c.OnRegAccess(0, isa.R(5))
		c.OnRegAccess(0, isa.R(6))
	}
	c.OnWarpComplete(0)
	if int(st.Lookup(isa.R(5))) >= 4 {
		t.Error("hybrid did not adopt pilot result")
	}
}

func TestControllerOracle(t *testing.T) {
	p := loopProgram(t)
	c, st := newController(t, TechniqueOracle)
	c.SetOracle([]isa.Reg{isa.R(5), isa.R(6), isa.R(7), isa.R(0)})
	c.KernelLaunch(p, 0)
	for _, r := range []isa.Reg{isa.R(5), isa.R(6), isa.R(7), isa.R(0)} {
		if int(st.Lookup(r)) >= 4 {
			t.Errorf("oracle register %s not in FRF", r)
		}
	}
}

func TestControllerOracleWithoutSetPanics(t *testing.T) {
	p := loopProgram(t)
	c, _ := newController(t, TechniqueOracle)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.KernelLaunch(p, 0)
}

func TestControllerStaticFirstNIsIdentity(t *testing.T) {
	p := loopProgram(t)
	c, st := newController(t, TechniqueStaticFirstN)
	c.KernelLaunch(p, 0)
	for r := 0; r < 8; r++ {
		if got := st.Lookup(isa.R(r)); got != isa.R(r) {
			t.Errorf("static-first-n moved R%d to %s", r, got)
		}
	}
	// Completing any warp changes nothing.
	c.OnWarpComplete(0)
	if c.PilotDone() {
		t.Error("static technique claims a pilot completed")
	}
}

func TestControllerSecondPilotCompletionIgnored(t *testing.T) {
	p := loopProgram(t)
	c, st := newController(t, TechniquePilot)
	c.KernelLaunch(p, 0)
	for i := 0; i < 10; i++ {
		c.OnRegAccess(0, isa.R(5))
	}
	c.OnWarpComplete(0)
	want := st.Lookup(isa.R(5))
	// Late accesses and duplicate completions must not disturb the map.
	c.OnRegAccess(0, isa.R(9))
	c.OnWarpComplete(0)
	if got := st.Lookup(isa.R(5)); got != want {
		t.Error("duplicate pilot completion changed the mapping")
	}
}

func TestControllerRelaunchResets(t *testing.T) {
	p := loopProgram(t)
	c, st := newController(t, TechniquePilot)
	c.KernelLaunch(p, 0)
	for i := 0; i < 10; i++ {
		c.OnRegAccess(0, isa.R(9))
	}
	c.OnWarpComplete(0)
	if int(st.Lookup(isa.R(9))) >= 4 {
		t.Fatal("setup failed")
	}
	// Second kernel: mapping resets, counters re-arm with a new pilot.
	c.KernelLaunch(p, 7)
	if got := st.Lookup(isa.R(9)); got != isa.R(9) {
		t.Errorf("relaunch kept stale mapping for R9 -> %s", got)
	}
	if c.PilotDone() {
		t.Error("relaunch kept pilotDone")
	}
	if c.Counters().PilotWarp() != 7 {
		t.Errorf("pilot warp = %d, want 7", c.Counters().PilotWarp())
	}
}

func TestNewControllerErrors(t *testing.T) {
	st, err := regfile.NewSwapTable(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, frf := range []int{0, -1} {
		if _, err := NewController(TechniquePilot, frf, st); err == nil {
			t.Errorf("frf=%d did not error", frf)
		}
	}
}

func TestTechniqueStrings(t *testing.T) {
	want := map[Technique]string{
		TechniqueStaticFirstN: "static-first-n",
		TechniqueCompiler:     "compiler",
		TechniquePilot:        "pilot",
		TechniqueHybrid:       "hybrid",
		TechniqueOracle:       "optimal",
	}
	for tech, name := range want {
		if tech.String() != name {
			t.Errorf("%d.String() = %q, want %q", tech, tech.String(), name)
		}
	}
}
