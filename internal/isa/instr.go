package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Instruction is a single decoded machine instruction. Operand slots that
// an opcode does not use hold RegNone/PredNone; Validate enforces the
// per-opcode shape.
type Instruction struct {
	Op    Op
	Guard Guard // execution guard (@P / @!P)

	Dst  Reg // general-register destination, RegNone if absent
	SrcA Reg
	SrcB Reg
	SrcC Reg

	PDst    Pred    // predicate destination (SETP*), PredNone otherwise
	SrcPred Pred    // predicate source (SEL), PredNone otherwise
	Cmp     CmpOp   // comparison for SETP*
	Special Special // special register for S2R

	Imm int32 // immediate operand / address offset

	// Target is the branch destination as an instruction index within
	// the program. Reconv is the reconvergence point (immediate
	// post-dominator) used by the SIMT stack when the branch diverges.
	Target int
	Reconv int
}

// SrcRegs appends the valid general-register sources of the instruction to
// dst and returns it. RZ is excluded: it is hardwired and never reads the
// register file.
func (in *Instruction) SrcRegs(dst []Reg) []Reg {
	for _, r := range [3]Reg{in.SrcA, in.SrcB, in.SrcC} {
		if r.Valid() {
			dst = append(dst, r)
		}
	}
	return dst
}

// DstReg returns the general-register destination and whether one exists.
// Writes to RZ are discarded and reported as absent.
func (in *Instruction) DstReg() (Reg, bool) {
	if in.Dst.Valid() {
		return in.Dst, true
	}
	return RegNone, false
}

// RegAccessCount returns the number of register file accesses (reads plus
// writes) this instruction performs when all lanes execute.
func (in *Instruction) RegAccessCount() int {
	n := 0
	for _, r := range [3]Reg{in.SrcA, in.SrcB, in.SrcC} {
		if r.Valid() {
			n++
		}
	}
	if in.Dst.Valid() {
		n++
	}
	return n
}

// Validate checks that operand slots match the opcode's shape. It returns
// a descriptive error for the first violation found.
func (in *Instruction) Validate(programLen int) error {
	type shape struct {
		dst              bool
		nsrc             int
		pdst, psrc, imm  bool
		branch, special_ bool
	}
	var s shape
	switch in.Op {
	case OpNOP, OpEXIT, OpBAR:
		s = shape{}
	case OpMOV, OpFRCP, OpFSQRT, OpFEXP:
		s = shape{dst: true, nsrc: 1}
	case OpMOVI:
		s = shape{dst: true, imm: true}
	case OpS2R:
		s = shape{dst: true, special_: true}
	case OpIADD, OpISUB, OpIMUL, OpAND, OpOR, OpXOR, OpIMIN, OpIMAX, OpFADD, OpFMUL, OpSHFL:
		s = shape{dst: true, nsrc: 2}
	case OpIADDI, OpIMULI, OpANDI, OpSHLI, OpSHRI:
		s = shape{dst: true, nsrc: 1, imm: true}
	case OpIMAD, OpFFMA:
		s = shape{dst: true, nsrc: 3}
	case OpSEL:
		s = shape{dst: true, nsrc: 2, psrc: true}
	case OpSETP:
		s = shape{nsrc: 2, pdst: true}
	case OpSETPI:
		s = shape{nsrc: 1, pdst: true, imm: true}
	case OpLDG, OpLDS:
		s = shape{dst: true, nsrc: 1, imm: true}
	case OpSTG, OpSTS:
		s = shape{nsrc: 2, imm: true}
	case OpBRA:
		s = shape{branch: true}
	default:
		return fmt.Errorf("isa: unknown opcode %d", uint8(in.Op))
	}

	if s.dst != in.Dst.Valid() && !(s.dst && in.Dst == RZ) {
		return fmt.Errorf("isa: %s: destination register mismatch (got %s)", in.Op, in.Dst)
	}
	nsrc := 0
	for _, r := range [3]Reg{in.SrcA, in.SrcB, in.SrcC} {
		if r.Valid() || r == RZ {
			nsrc++
		}
	}
	if nsrc != s.nsrc {
		return fmt.Errorf("isa: %s: %d source registers, want %d", in.Op, nsrc, s.nsrc)
	}
	if s.pdst != (in.PDst != PredNone) {
		return fmt.Errorf("isa: %s: predicate destination mismatch", in.Op)
	}
	if s.psrc != (in.SrcPred != PredNone) {
		return fmt.Errorf("isa: %s: predicate source mismatch", in.Op)
	}
	if s.pdst && !in.PDst.Valid() {
		return fmt.Errorf("isa: %s: predicate destination %s not writable", in.Op, in.PDst)
	}
	if in.Guard.Pred != PT && !in.Guard.Pred.Valid() {
		return fmt.Errorf("isa: %s: invalid guard predicate %s", in.Op, in.Guard.Pred)
	}
	if s.branch {
		if in.Target < 0 || in.Target >= programLen {
			return fmt.Errorf("isa: %s: branch target %d outside program of %d instructions", in.Op, in.Target, programLen)
		}
		if in.Reconv < 0 || in.Reconv > programLen {
			return fmt.Errorf("isa: %s: reconvergence point %d outside program of %d instructions", in.Op, in.Reconv, programLen)
		}
	}
	return nil
}

// String disassembles the instruction.
func (in *Instruction) String() string {
	var b strings.Builder
	b.WriteString(in.Guard.String())
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpNOP, OpEXIT, OpBAR:
	case OpMOVI:
		b.WriteString(" " + in.Dst.String() + ", " + strconv.Itoa(int(in.Imm)))
	case OpS2R:
		b.WriteString(" " + in.Dst.String() + ", " + in.Special.String())
	case OpSETP:
		b.WriteString("." + in.Cmp.String() + " " + in.PDst.String() + ", " + in.SrcA.String() + ", " + in.SrcB.String())
	case OpSETPI:
		b.WriteString("." + in.Cmp.String() + " " + in.PDst.String() + ", " + in.SrcA.String() + ", " + strconv.Itoa(int(in.Imm)))
	case OpSEL:
		b.WriteString(" " + in.Dst.String() + ", " + in.SrcA.String() + ", " + in.SrcB.String() + ", " + in.SrcPred.String())
	case OpLDG, OpLDS:
		b.WriteString(" " + in.Dst.String() + ", [" + in.SrcA.String() + "+" + strconv.Itoa(int(in.Imm)) + "]")
	case OpSTG, OpSTS:
		b.WriteString(" [" + in.SrcA.String() + "+" + strconv.Itoa(int(in.Imm)) + "], " + in.SrcB.String())
	case OpBRA:
		b.WriteString(" " + strconv.Itoa(in.Target) + " (reconv " + strconv.Itoa(in.Reconv) + ")")
	default:
		// Generic register-operand form.
		b.WriteByte(' ')
		ops := make([]string, 0, 4)
		if in.Dst != RegNone {
			ops = append(ops, in.Dst.String())
		}
		for _, r := range [3]Reg{in.SrcA, in.SrcB, in.SrcC} {
			if r != RegNone {
				ops = append(ops, r.String())
			}
		}
		if in.Op == OpIADDI || in.Op == OpIMULI || in.Op == OpANDI || in.Op == OpSHLI || in.Op == OpSHRI {
			ops = append(ops, strconv.Itoa(int(in.Imm)))
		}
		b.WriteString(strings.Join(ops, ", "))
	}
	return b.String()
}
