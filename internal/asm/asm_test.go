package asm

import (
	"reflect"
	"strings"
	"testing"

	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
	"pilotrf/internal/ref"
	"pilotrf/internal/workloads"
)

const demoSrc = `
.kernel demo
.regs 12

# accumulate loaded values
    S2R   R0, SR_TID
    SHLI  R8, R0, 2
    MOVI  R4, 0
    MOVI  R1, 0
loop:
    LDS   R5, [R8+0]
    IADD  R4, R4, R5
    IADDI R8, R8, 4
    IADDI R1, R1, 1
    SETPI.LT P0, R1, 10
    @P0 BRA loop
    STG   [R0+0], R4
    EXIT
`

func TestAssembleBasic(t *testing.T) {
	p, err := Assemble(demoSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if p.Name != "demo" || p.NumRegs != 12 {
		t.Errorf("header = %s/%d", p.Name, p.NumRegs)
	}
	if p.Len() != 12 {
		t.Fatalf("program has %d instructions, want 12", p.Len())
	}
	// The branch: backward to the loop label, default reconvergence.
	bra := p.At(9)
	if bra.Op != isa.OpBRA || bra.Target != 4 || bra.Reconv != 10 {
		t.Errorf("branch = %+v, want target 4 reconv 10", bra)
	}
	if bra.Guard.Pred != isa.P(0) || bra.Guard.Neg {
		t.Errorf("branch guard = %v", bra.Guard)
	}
	// SETPI picked up the comparison suffix.
	setp := p.At(8)
	if setp.Cmp != isa.CmpLT || setp.Imm != 10 {
		t.Errorf("SETPI = %+v", setp)
	}
	// Memory operands.
	lds := p.At(4)
	if lds.SrcA != isa.R(8) || lds.Imm != 0 || lds.Dst != isa.R(5) {
		t.Errorf("LDS = %+v", lds)
	}
}

func TestAssembledProgramRuns(t *testing.T) {
	p, err := Assemble(demoSrc)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	k := &kernel.Kernel{Prog: p, ThreadsPerCTA: 64, NumCTAs: 2}
	res, err := ref.Run(k, 1)
	if err != nil {
		t.Fatalf("ref.Run: %v", err)
	}
	// 4 warps x (4 prologue + 10x6 loop + STG + EXIT) = 4 x 66.
	if want := uint64(4 * 66); res.WarpInstrs != want {
		t.Errorf("WarpInstrs = %d, want %d", res.WarpInstrs, want)
	}
}

func TestExplicitReconv(t *testing.T) {
	src := `
.kernel fwd
.regs 4
    SETPI.LT P0, R0, 8
    @!P0 BRA then !reconv end
    MOVI R1, 1
then:
    MOVI R1, 2
end:
    EXIT
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	bra := p.At(1)
	if bra.Target != 3 || bra.Reconv != 4 {
		t.Errorf("branch = target %d reconv %d, want 3/4", bra.Target, bra.Reconv)
	}
}

func TestForwardBranchDefaultReconvIsTarget(t *testing.T) {
	src := `
.kernel skip
.regs 4
    SETPI.GE P1, R0, 0
    @P1 BRA end
    MOVI R1, 7
end:
    EXIT
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	bra := p.At(1)
	if bra.Target != 3 || bra.Reconv != 3 {
		t.Errorf("skip branch = target %d reconv %d, want 3/3", bra.Target, bra.Reconv)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"missing kernel":  ".regs 4\n EXIT",
		"missing regs":    ".kernel k\n EXIT",
		"bad mnemonic":    ".kernel k\n.regs 4\n FROB R0, R1\n EXIT",
		"bad register":    ".kernel k\n.regs 4\n MOV R0, R99\n EXIT",
		"missing label":   ".kernel k\n.regs 4\n BRA nowhere\n EXIT",
		"dup label":       ".kernel k\n.regs 4\nx:\nx:\n EXIT",
		"operand count":   ".kernel k\n.regs 4\n IADD R0, R1\n EXIT",
		"bad guard":       ".kernel k\n.regs 4\n @Q0 MOV R0, R1\n EXIT",
		"bad immediate":   ".kernel k\n.regs 4\n MOVI R0, xyz\n EXIT",
		"bad memory":      ".kernel k\n.regs 4\n LDG R0, R1\n EXIT",
		"over budget":     ".kernel k\n.regs 2\n MOVI R3, 1\n EXIT",
		"no exit":         ".kernel k\n.regs 4\n MOVI R0, 1",
		"bad cmp":         ".kernel k\n.regs 4\n SETPI.XX P0, R0, 1\n EXIT",
		"bad special":     ".kernel k\n.regs 4\n S2R R0, SR_BOGUS\n EXIT",
		"bad regs count":  ".kernel k\n.regs 99\n EXIT",
		"guard alone":     ".kernel k\n.regs 4\n @P0\n EXIT",
		"bad branch args": ".kernel k\n.regs 4\nx:\n BRA x y z\n EXIT",
		// Lanes with P0 false would run past the last instruction.
		"falls off the end":  ".kernel t\n.regs 10\n S2R R0, SR_TID\n IMAD R2, R0, R0, R0\n @P0 EXIT",
		"label past the end": ".kernel t\n.regs 4\n @P0 BRA end\n EXIT\nend:",
	}
	for name, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := ".kernel k\n.regs 4\n  MOVI R0, 5 # set\n\t\n// full line\n EXIT // done\n"
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if p.Len() != 2 {
		t.Errorf("program has %d instructions, want 2", p.Len())
	}
}

func TestHexAndNegativeImmediates(t *testing.T) {
	src := ".kernel k\n.regs 4\n MOVI R0, 0xFF\n MOVI R1, -7\n ANDI R2, R0, 0xFFFF\n EXIT\n"
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if p.At(0).Imm != 255 || p.At(1).Imm != -7 || p.At(2).Imm != 0xFFFF {
		t.Errorf("immediates = %d %d %d", p.At(0).Imm, p.At(1).Imm, p.At(2).Imm)
	}
}

// Text/Assemble must round-trip every bundled workload kernel exactly.
func TestRoundTripAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		for _, k := range w.Kernels {
			text := Text(k.Prog)
			back, err := Assemble(text)
			if err != nil {
				t.Fatalf("%s/%s: reassemble: %v\n%s", w.Name, k.Prog.Name, err, text)
			}
			if back.NumRegs != k.Prog.NumRegs || back.Len() != k.Prog.Len() {
				t.Fatalf("%s/%s: shape changed", w.Name, k.Prog.Name)
			}
			for pc := range k.Prog.Instrs {
				if !reflect.DeepEqual(k.Prog.Instrs[pc], back.Instrs[pc]) {
					t.Errorf("%s/%s pc %d:\n  orig %+v\n  back %+v",
						w.Name, k.Prog.Name, pc, k.Prog.Instrs[pc], back.Instrs[pc])
				}
			}
		}
	}
}

func TestTextIsHumanReadable(t *testing.T) {
	w, err := workloads.ByName("backprop")
	if err != nil {
		t.Fatal(err)
	}
	text := Text(w.Kernels[0].Prog)
	if !strings.Contains(text, ".kernel backprop_layerforward") {
		t.Error("missing kernel header")
	}
	if !strings.Contains(text, "BRA L") {
		t.Error("branches not labeled")
	}
}

func TestSplitOperandsBrackets(t *testing.T) {
	got := splitOperands("[R1+4], R2")
	if len(got) != 2 || got[0] != "[R1+4]" || got[1] != "R2" {
		t.Errorf("splitOperands = %q", got)
	}
	if got := splitOperands("   "); got != nil {
		t.Errorf("blank operands = %q", got)
	}
}
