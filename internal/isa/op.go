package isa

import "fmt"

// Op is an opcode.
type Op uint8

// Opcodes. Integer ALU, floating point, special function, memory, and
// control flow. The suffix I marks an immediate second operand.
const (
	OpNOP Op = iota

	// Integer ALU.
	OpMOV   // Rd = Ra
	OpMOVI  // Rd = imm
	OpS2R   // Rd = special
	OpIADD  // Rd = Ra + Rb
	OpIADDI // Rd = Ra + imm
	OpISUB  // Rd = Ra - Rb
	OpIMUL  // Rd = Ra * Rb
	OpIMULI // Rd = Ra * imm
	OpIMAD  // Rd = Ra * Rb + Rc
	OpAND   // Rd = Ra & Rb
	OpANDI  // Rd = Ra & imm
	OpOR    // Rd = Ra | Rb
	OpXOR   // Rd = Ra ^ Rb
	OpSHLI  // Rd = Ra << imm
	OpSHRI  // Rd = Ra >> imm (logical)
	OpIMIN  // Rd = min(Ra, Rb) signed
	OpIMAX  // Rd = max(Ra, Rb) signed
	OpSEL   // Rd = guard-pred? Ra : Rb (selector is SrcPred)
	OpSHFL  // Rd = Ra of lane (Rb & 31) — Kepler warp shuffle

	// Predicate setting.
	OpSETP  // Pd = Ra cmp Rb
	OpSETPI // Pd = Ra cmp imm

	// Floating point (values are float32 bit patterns in registers).
	OpFADD // Rd = Ra + Rb
	OpFMUL // Rd = Ra * Rb
	OpFFMA // Rd = Ra * Rb + Rc

	// Special function unit.
	OpFRCP  // Rd = 1 / Ra
	OpFSQRT // Rd = sqrt(Ra)
	OpFEXP  // Rd = exp2(Ra)

	// Memory. Addresses are byte addresses formed as Ra + imm.
	OpLDG // Rd = global[Ra + imm]
	OpSTG // global[Ra + imm] = Rb
	OpLDS // Rd = shared[Ra + imm]
	OpSTS // shared[Ra + imm] = Rb

	// Control flow.
	OpBRA  // branch to Target (guarded => potentially divergent)
	OpEXIT // thread terminates
	OpBAR  // CTA-wide barrier

	// NumOps counts the opcodes: every Op below it is defined.
	NumOps
)

// Class groups opcodes by the execution unit that services them.
type Class uint8

// Execution unit classes.
const (
	ClassALU  Class = iota // integer / simple FP pipeline
	ClassFPU               // floating point pipeline
	ClassSFU               // special function unit
	ClassMem               // load/store unit
	ClassCtrl              // branch / barrier / exit
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassALU:
		return "ALU"
	case ClassFPU:
		return "FPU"
	case ClassSFU:
		return "SFU"
	case ClassMem:
		return "MEM"
	case ClassCtrl:
		return "CTRL"
	default:
		return fmt.Sprintf("CLASS_%d", uint8(c))
	}
}

type opInfo struct {
	name  string
	class Class
}

var opTable = [NumOps]opInfo{
	OpNOP:   {"NOP", ClassALU},
	OpMOV:   {"MOV", ClassALU},
	OpMOVI:  {"MOVI", ClassALU},
	OpS2R:   {"S2R", ClassALU},
	OpIADD:  {"IADD", ClassALU},
	OpIADDI: {"IADDI", ClassALU},
	OpISUB:  {"ISUB", ClassALU},
	OpIMUL:  {"IMUL", ClassALU},
	OpIMULI: {"IMULI", ClassALU},
	OpIMAD:  {"IMAD", ClassALU},
	OpAND:   {"AND", ClassALU},
	OpANDI:  {"ANDI", ClassALU},
	OpOR:    {"OR", ClassALU},
	OpXOR:   {"XOR", ClassALU},
	OpSHLI:  {"SHLI", ClassALU},
	OpSHRI:  {"SHRI", ClassALU},
	OpIMIN:  {"IMIN", ClassALU},
	OpIMAX:  {"IMAX", ClassALU},
	OpSEL:   {"SEL", ClassALU},
	OpSHFL:  {"SHFL", ClassALU},
	OpSETP:  {"SETP", ClassALU},
	OpSETPI: {"SETPI", ClassALU},
	OpFADD:  {"FADD", ClassFPU},
	OpFMUL:  {"FMUL", ClassFPU},
	OpFFMA:  {"FFMA", ClassFPU},
	OpFRCP:  {"FRCP", ClassSFU},
	OpFSQRT: {"FSQRT", ClassSFU},
	OpFEXP:  {"FEXP", ClassSFU},
	OpLDG:   {"LDG", ClassMem},
	OpSTG:   {"STG", ClassMem},
	OpLDS:   {"LDS", ClassMem},
	OpSTS:   {"STS", ClassMem},
	OpBRA:   {"BRA", ClassCtrl},
	OpEXIT:  {"EXIT", ClassCtrl},
	OpBAR:   {"BAR", ClassCtrl},
}

// OpByName returns the opcode with the given mnemonic.
func OpByName(name string) (Op, bool) {
	for op := Op(0); op < NumOps; op++ {
		if opTable[op].name == name {
			return op, true
		}
	}
	return 0, false
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opTable) && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("OP_%d", uint8(o))
}

// ClassOf returns the execution unit class of the opcode.
func (o Op) ClassOf() Class {
	if int(o) >= len(opTable) {
		panic(fmt.Sprintf("isa: unknown opcode %d", uint8(o)))
	}
	return opTable[o].class
}

// IsBranch reports whether the opcode redirects control flow.
func (o Op) IsBranch() bool { return o == OpBRA }

// IsMemory reports whether the opcode accesses memory.
func (o Op) IsMemory() bool { return o.ClassOf() == ClassMem }

// IsGlobalMemory reports whether the opcode accesses global (long-latency)
// memory.
func (o Op) IsGlobalMemory() bool { return o == OpLDG || o == OpSTG }
