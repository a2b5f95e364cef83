package kernel

import (
	"strings"
	"testing"

	"pilotrf/internal/isa"
)

// simpleProgram builds: R0=tid; loop 4x {R1 = R1 + R0}; store; exit.
func simpleProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("simple", 8)
	b.S2R(isa.R(0), isa.SRTid)
	b.MOVI(isa.R(1), 0)
	b.CountedLoop(isa.R(2), isa.P(0), 4, func() {
		b.IADD(isa.R(1), isa.R(1), isa.R(0))
	})
	b.STG(isa.R(0), 0, isa.R(1))
	b.EXIT()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuilderBuildsValidProgram(t *testing.T) {
	p := simpleProgram(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Len() == 0 {
		t.Fatal("empty program")
	}
}

func TestLoopBackEdgeResolution(t *testing.T) {
	p := simpleProgram(t)
	// Find the BRA; its target must point at the loop body start (the
	// IADD), i.e. backwards, and reconv must be the fall-through.
	for pc := range p.Instrs {
		in := p.At(pc)
		if in.Op == isa.OpBRA {
			if in.Target >= pc {
				t.Errorf("loop branch at %d targets %d, want backward", pc, in.Target)
			}
			if in.Reconv != pc+1 {
				t.Errorf("loop branch reconv = %d, want %d", in.Reconv, pc+1)
			}
			return
		}
	}
	t.Fatal("no branch found")
}

func TestIfEmitsSkipBranch(t *testing.T) {
	b := NewBuilder("ifk", 4)
	b.SETPI(isa.P(0), isa.R(0), isa.CmpGT, 5)
	b.If(isa.P(0), false, func() {
		b.IADDI(isa.R(1), isa.R(1), 1)
	})
	b.EXIT()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	bra := p.At(1)
	if bra.Op != isa.OpBRA {
		t.Fatalf("instr 1 = %v, want BRA", bra.Op)
	}
	if !bra.Guard.Neg || bra.Guard.Pred != isa.P(0) {
		t.Errorf("skip branch guard = %v, want @!P0", bra.Guard)
	}
	if bra.Target != 3 || bra.Reconv != 3 {
		t.Errorf("skip branch target/reconv = %d/%d, want 3/3", bra.Target, bra.Reconv)
	}
}

func TestIfElseShape(t *testing.T) {
	b := NewBuilder("ifelse", 4)
	b.SETPI(isa.P(1), isa.R(0), isa.CmpLT, 0)
	b.IfElse(isa.P(1),
		func() { b.MOVI(isa.R(1), 1) },
		func() { b.MOVI(isa.R(1), 2) },
	)
	b.EXIT()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Layout: 0 SETPI, 1 @!P1 BRA else, 2 MOVI(then), 3 BRA end, 4 MOVI(else), 5 EXIT.
	if p.At(1).Target != 4 {
		t.Errorf("else branch target = %d, want 4", p.At(1).Target)
	}
	if p.At(1).Reconv != 5 {
		t.Errorf("else branch reconv = %d, want 5", p.At(1).Reconv)
	}
	if p.At(3).Target != 5 {
		t.Errorf("then exit branch target = %d, want 5", p.At(3).Target)
	}
}

func TestUnboundLabelFails(t *testing.T) {
	b := NewBuilder("bad", 4)
	l := b.NewLabel()
	b.Bra(l)
	b.EXIT()
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with unbound label")
	}
}

func TestDoubleBindPanics(t *testing.T) {
	b := NewBuilder("bad", 4)
	l := b.NewLabel()
	b.Bind(l)
	defer func() {
		if recover() == nil {
			t.Fatal("double Bind did not panic")
		}
	}()
	b.Bind(l)
}

func TestRegisterBudgetEnforced(t *testing.T) {
	b := NewBuilder("overbudget", 3)
	b.MOVI(isa.R(5), 1) // R5 with budget 3
	b.EXIT()
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted register beyond budget")
	}
}

func TestMissingExitRejected(t *testing.T) {
	b := NewBuilder("noexit", 3)
	b.MOVI(isa.R(0), 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted program without EXIT")
	}
}

// TestFallThroughPastEndRejected: lanes that skip a guarded last
// instruction, or run any last instruction but EXIT or BRA, would step
// to pc = len, so only an unguarded EXIT or BRA may end a program.
func TestFallThroughPastEndRejected(t *testing.T) {
	for name, tc := range map[string]struct {
		last func(b *Builder, top Label)
		ok   bool
	}{
		"EXIT":         {func(b *Builder, _ Label) { b.EXIT() }, true},
		"BRA":          {func(b *Builder, top Label) { b.Bra(top) }, true},
		"guarded EXIT": {func(b *Builder, _ Label) { b.Guarded(isa.P(0), false, b.EXIT) }, false},
		"negated EXIT": {func(b *Builder, _ Label) { b.Guarded(isa.P(0), true, b.EXIT) }, false},
		"guarded BRA":  {func(b *Builder, top Label) { b.BraIf(isa.P(1), false, top) }, false},
		"MOVI":         {func(b *Builder, _ Label) { b.MOVI(isa.R(1), 1) }, false},
	} {
		b := NewBuilder("tail", 4)
		top := b.NewLabel()
		b.Bind(top)
		b.S2R(isa.R(0), isa.SRTid)
		b.EXIT()
		tc.last(b, top)
		_, err := b.Build()
		if (err == nil) != tc.ok {
			t.Errorf("last instruction %s: Build error %v, want ok %v", name, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "past the end") {
			t.Errorf("last instruction %s: error %q does not say why", name, err)
		}
	}
}

func TestStaticRegCounts(t *testing.T) {
	b := NewBuilder("census", 8)
	b.MOVI(isa.R(0), 1)                  // R0 x1
	b.IADD(isa.R(1), isa.R(0), isa.R(0)) // R1 x1, R0 x2
	b.STG(isa.R(1), 0, isa.R(0))         // R1 x1, R0 x1
	b.EXIT()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	h := p.StaticRegCounts()
	if got := h.Count(0); got != 4 {
		t.Errorf("R0 static count = %d, want 4", got)
	}
	if got := h.Count(1); got != 2 {
		t.Errorf("R1 static count = %d, want 2", got)
	}
	if got := h.Total(); got != 6 {
		t.Errorf("total static count = %d, want 6", got)
	}
}

func TestGuardedEmitsGuards(t *testing.T) {
	b := NewBuilder("guarded", 4)
	b.Guarded(isa.P(2), true, func() {
		b.MOVI(isa.R(0), 7)
	})
	b.MOVI(isa.R(1), 8)
	b.EXIT()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g := p.At(0).Guard; g.Pred != isa.P(2) || !g.Neg {
		t.Errorf("guarded instr guard = %v, want @!P2", g)
	}
	if g := p.At(1).Guard; g != isa.GuardAlways {
		t.Errorf("instr after Guarded = %v, want always", g)
	}
}

func TestDisassembleMentionsEveryPC(t *testing.T) {
	p := simpleProgram(t)
	dis := p.Disassemble()
	if !strings.Contains(dis, "simple") {
		t.Error("disassembly missing program name")
	}
	lines := strings.Count(dis, "\n")
	if lines != p.Len()+1 {
		t.Errorf("disassembly has %d lines, want %d", lines, p.Len()+1)
	}
}

func TestKernelGeometry(t *testing.T) {
	k := &Kernel{Prog: simpleProgram(t), ThreadsPerCTA: 256, NumCTAs: 10}
	if err := k.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := k.TotalThreads(); got != 2560 {
		t.Errorf("TotalThreads = %d, want 2560", got)
	}
	if got := k.WarpsPerCTA(); got != 8 {
		t.Errorf("WarpsPerCTA = %d, want 8", got)
	}
	k2 := &Kernel{Prog: simpleProgram(t), ThreadsPerCTA: 61, NumCTAs: 1}
	if got := k2.WarpsPerCTA(); got != 2 {
		t.Errorf("WarpsPerCTA(61) = %d, want 2", got)
	}
}

func TestKernelValidateRejectsBadGeometry(t *testing.T) {
	p := simpleProgram(t)
	for _, k := range []*Kernel{
		{Prog: p, ThreadsPerCTA: 0, NumCTAs: 1},
		{Prog: p, ThreadsPerCTA: 2048, NumCTAs: 1},
		{Prog: p, ThreadsPerCTA: 32, NumCTAs: 0},
	} {
		if err := k.Validate(); err == nil {
			t.Errorf("Validate accepted geometry %d/%d", k.ThreadsPerCTA, k.NumCTAs)
		}
	}
}

func TestRegCountedLoop(t *testing.T) {
	b := NewBuilder("regloop", 8)
	b.S2R(isa.R(0), isa.SRTid)
	b.RegCountedLoop(isa.R(1), isa.P(0), isa.R(0), func() {
		b.IADDI(isa.R(2), isa.R(2), 1)
	})
	b.EXIT()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// The back edge must use a register compare (SETP not SETPI).
	foundSETP := false
	for pc := range p.Instrs {
		if p.At(pc).Op == isa.OpSETP {
			foundSETP = true
		}
	}
	if !foundSETP {
		t.Error("RegCountedLoop did not emit SETP")
	}
}
