package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegValidity(t *testing.T) {
	if !R(0).Valid() || !R(62).Valid() {
		t.Error("R0/R62 should be valid")
	}
	if RZ.Valid() || RegNone.Valid() {
		t.Error("RZ/RegNone should be invalid as allocatable registers")
	}
}

func TestRPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, MaxRegs, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("R(%d) did not panic", n)
				}
			}()
			R(n)
		}()
	}
}

func TestRegString(t *testing.T) {
	cases := map[Reg]string{R(0): "R0", R(17): "R17", RZ: "RZ", RegNone: "-"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint8(r), got, want)
		}
	}
}

func TestPredValidity(t *testing.T) {
	if !P(0).Valid() || !P(6).Valid() {
		t.Error("P0/P6 should be valid")
	}
	if PT.Valid() || PredNone.Valid() {
		t.Error("PT/PredNone are not writable predicates")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("P(7) did not panic")
			}
		}()
		P(7)
	}()
}

func TestGuardString(t *testing.T) {
	if got := GuardAlways.String(); got != "" {
		t.Errorf("always guard = %q, want empty", got)
	}
	if got := (Guard{Pred: P(2)}).String(); got != "@P2 " {
		t.Errorf("guard = %q, want %q", got, "@P2 ")
	}
	if got := (Guard{Pred: P(1), Neg: true}).String(); got != "@!P1 " {
		t.Errorf("neg guard = %q, want %q", got, "@!P1 ")
	}
}

func TestCmpEval(t *testing.T) {
	cases := []struct {
		c    CmpOp
		a, b int32
		want bool
	}{
		{CmpEQ, 3, 3, true}, {CmpEQ, 3, 4, false},
		{CmpNE, 3, 4, true}, {CmpNE, 3, 3, false},
		{CmpLT, -1, 0, true}, {CmpLT, 0, 0, false},
		{CmpLE, 0, 0, true}, {CmpLE, 1, 0, false},
		{CmpGT, 5, 4, true}, {CmpGT, 4, 5, false},
		{CmpGE, 4, 4, true}, {CmpGE, 3, 4, false},
	}
	for _, c := range cases {
		if got := c.c.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %v, want %v", c.c, c.a, c.b, got, c.want)
		}
	}
}

func TestOpClasses(t *testing.T) {
	cases := map[Op]Class{
		OpIADD: ClassALU, OpSETP: ClassALU,
		OpFADD: ClassFPU, OpFFMA: ClassFPU,
		OpFRCP: ClassSFU, OpFSQRT: ClassSFU,
		OpLDG: ClassMem, OpSTS: ClassMem,
		OpBRA: ClassCtrl, OpEXIT: ClassCtrl, OpBAR: ClassCtrl,
	}
	for op, want := range cases {
		if got := op.ClassOf(); got != want {
			t.Errorf("%v.ClassOf() = %v, want %v", op, got, want)
		}
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpBRA.IsBranch() || OpIADD.IsBranch() {
		t.Error("IsBranch wrong")
	}
	if !OpLDG.IsMemory() || !OpSTS.IsMemory() || OpIADD.IsMemory() {
		t.Error("IsMemory wrong")
	}
	if !OpLDG.IsGlobalMemory() || !OpSTG.IsGlobalMemory() || OpLDS.IsGlobalMemory() {
		t.Error("IsGlobalMemory wrong")
	}
}

func TestOpStringsUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); op < NumOps; op++ {
		name := op.String()
		if strings.HasPrefix(name, "OP_") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("mnemonic %q reused by %d and %d", name, prev, op)
		}
		seen[name] = op
	}
}

func validIADD() Instruction {
	return Instruction{Op: OpIADD, Guard: GuardAlways, Dst: R(0), SrcA: R(1), SrcB: R(2), SrcC: RegNone, PDst: PredNone, SrcPred: PredNone}
}

func TestInstructionAccessors(t *testing.T) {
	in := validIADD()
	srcs := in.SrcRegs(nil)
	if len(srcs) != 2 || srcs[0] != R(1) || srcs[1] != R(2) {
		t.Errorf("SrcRegs = %v", srcs)
	}
	d, ok := in.DstReg()
	if !ok || d != R(0) {
		t.Errorf("DstReg = %v, %v", d, ok)
	}
	if got := in.RegAccessCount(); got != 3 {
		t.Errorf("RegAccessCount = %d, want 3", got)
	}
}

func TestRZExcludedFromAccesses(t *testing.T) {
	in := Instruction{Op: OpIADD, Guard: GuardAlways, Dst: RZ, SrcA: R(1), SrcB: RZ, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone}
	if got := in.RegAccessCount(); got != 1 {
		t.Errorf("RegAccessCount with RZ = %d, want 1", got)
	}
	if _, ok := in.DstReg(); ok {
		t.Error("RZ destination should report absent")
	}
	if srcs := in.SrcRegs(nil); len(srcs) != 1 {
		t.Errorf("SrcRegs with RZ = %v", srcs)
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	instrs := []Instruction{
		validIADD(),
		{Op: OpMOVI, Guard: GuardAlways, Dst: R(3), Imm: 7, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone},
		{Op: OpS2R, Guard: GuardAlways, Dst: R(1), Special: SRTid, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone},
		{Op: OpSETPI, Guard: GuardAlways, Dst: RegNone, SrcA: R(4), SrcB: RegNone, SrcC: RegNone, PDst: P(0), SrcPred: PredNone, Cmp: CmpLT, Imm: 10},
		{Op: OpBRA, Guard: Guard{Pred: P(0)}, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone, Target: 0, Reconv: 2},
		{Op: OpLDG, Guard: GuardAlways, Dst: R(5), SrcA: R(6), SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone, Imm: 16},
		{Op: OpSTG, Guard: GuardAlways, Dst: RegNone, SrcA: R(6), SrcB: R(5), SrcC: RegNone, PDst: PredNone, SrcPred: PredNone},
		{Op: OpEXIT, Guard: GuardAlways, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone},
		{Op: OpSEL, Guard: GuardAlways, Dst: R(0), SrcA: R(1), SrcB: R(2), SrcC: RegNone, PDst: PredNone, SrcPred: P(3)},
		{Op: OpIMAD, Guard: GuardAlways, Dst: R(0), SrcA: R(1), SrcB: R(2), SrcC: R(3), PDst: PredNone, SrcPred: PredNone},
	}
	for i, in := range instrs {
		if err := in.Validate(10); err != nil {
			t.Errorf("instr %d (%s): unexpected error: %v", i, in.String(), err)
		}
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	bad := []Instruction{
		// IADD missing a source.
		{Op: OpIADD, Guard: GuardAlways, Dst: R(0), SrcA: R(1), SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone},
		// MOVI with a stray source register.
		{Op: OpMOVI, Guard: GuardAlways, Dst: R(0), SrcA: R(1), SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone},
		// SETP without predicate destination.
		{Op: OpSETP, Guard: GuardAlways, Dst: RegNone, SrcA: R(1), SrcB: R(2), SrcC: RegNone, PDst: PredNone, SrcPred: PredNone},
		// SETP writing PT.
		{Op: OpSETP, Guard: GuardAlways, Dst: RegNone, SrcA: R(1), SrcB: R(2), SrcC: RegNone, PDst: PT, SrcPred: PredNone},
		// Branch outside program.
		{Op: OpBRA, Guard: GuardAlways, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone, Target: 99, Reconv: 0},
		// Branch with bad reconvergence point.
		{Op: OpBRA, Guard: GuardAlways, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone, Target: 0, Reconv: -1},
		// EXIT with a destination.
		{Op: OpEXIT, Guard: GuardAlways, Dst: R(0), SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone},
	}
	for i, in := range bad {
		if err := in.Validate(10); err == nil {
			t.Errorf("bad instr %d (%v) passed validation", i, in.Op)
		}
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{validIADD(), "IADD R0, R1, R2"},
		{Instruction{Op: OpMOVI, Guard: GuardAlways, Dst: R(3), Imm: -5, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone}, "MOVI R3, -5"},
		{Instruction{Op: OpSETPI, Guard: GuardAlways, Dst: RegNone, SrcA: R(4), SrcB: RegNone, SrcC: RegNone, PDst: P(0), SrcPred: PredNone, Cmp: CmpLT, Imm: 10}, "SETPI.LT P0, R4, 10"},
		{Instruction{Op: OpBRA, Guard: Guard{Pred: P(0), Neg: true}, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone, Target: 4, Reconv: 9}, "@!P0 BRA 4 (reconv 9)"},
		{Instruction{Op: OpLDG, Guard: GuardAlways, Dst: R(5), SrcA: R(6), SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone, Imm: 8}, "LDG R5, [R6+8]"},
		{Instruction{Op: OpSTG, Guard: GuardAlways, Dst: RegNone, SrcA: R(6), SrcB: R(5), SrcC: RegNone, PDst: PredNone, SrcPred: PredNone, Imm: 4}, "STG [R6+4], R5"},
		{Instruction{Op: OpEXIT, Guard: GuardAlways, Dst: RegNone, SrcA: RegNone, SrcB: RegNone, SrcC: RegNone, PDst: PredNone, SrcPred: PredNone}, "EXIT"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// Property: RegAccessCount always equals len(SrcRegs) plus the destination
// presence bit, for arbitrary operand encodings.
func TestPropertyAccessCountConsistent(t *testing.T) {
	f := func(d, a, b, c uint8) bool {
		in := Instruction{Op: OpIMAD, Guard: GuardAlways, Dst: Reg(d), SrcA: Reg(a), SrcB: Reg(b), SrcC: Reg(c), PDst: PredNone, SrcPred: PredNone}
		n := len(in.SrcRegs(nil))
		if _, ok := in.DstReg(); ok {
			n++
		}
		return n == in.RegAccessCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
