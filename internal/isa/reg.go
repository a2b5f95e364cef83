// Package isa defines the SASS-like instruction set executed by the GPU
// simulator: general-purpose registers, predicate registers, opcodes with
// functional-class metadata, and the instruction encoding shared by the
// kernel builder, the profilers, and the timing model.
//
// The ISA is deliberately a small subset of a Kepler-class machine
// language: enough to express real loops, divergent branches, memory
// traffic, and the register-reuse patterns whose statistics drive the
// Pilot Register File design, without modeling features (textures,
// surface ops, vector loads) that have no bearing on register file
// behaviour.
package isa

import (
	"fmt"
	"strconv"
)

// Reg identifies a general-purpose architected register. Each thread can be
// allocated at most MaxRegs registers (R0..R62), matching the simulated GPU
// in the paper; the encoding reserves two sentinels.
type Reg uint8

const (
	// MaxRegs is the maximum number of architected registers per thread.
	// The paper's profiling hardware provisions 63 two-byte counters for
	// exactly this reason.
	MaxRegs = 63

	// RZ reads as zero and discards writes. It is not an allocated
	// register and never counts as a register file access.
	RZ Reg = 0xFE

	// RegNone marks an unused operand slot.
	RegNone Reg = 0xFF
)

// Valid reports whether r is an allocatable architected register.
func (r Reg) Valid() bool { return r < MaxRegs }

// String returns the assembly name of the register.
func (r Reg) String() string {
	switch r {
	case RZ:
		return "RZ"
	case RegNone:
		return "-"
	default:
		return "R" + strconv.Itoa(int(r))
	}
}

// R returns the n-th general purpose register, panicking if out of range.
// It exists so kernel builders fail fast on bad register arithmetic.
func R(n int) Reg {
	if n < 0 || n >= MaxRegs {
		panic(fmt.Sprintf("isa: register R%d out of range [0,%d)", n, MaxRegs))
	}
	return Reg(n)
}

// Pred identifies a predicate register. PT is the constant-true predicate.
type Pred uint8

const (
	// NumPreds is the number of writable predicate registers (P0..P6).
	NumPreds = 7

	// PT always reads true; writes to it are discarded.
	PT Pred = 7

	// PredNone marks an instruction without a predicate destination.
	PredNone Pred = 0xFF
)

// Valid reports whether p is a writable predicate register.
func (p Pred) Valid() bool { return p < NumPreds }

// String returns the assembly name of the predicate register.
func (p Pred) String() string {
	switch p {
	case PT:
		return "PT"
	case PredNone:
		return "-"
	default:
		return "P" + strconv.Itoa(int(p))
	}
}

// P returns the n-th predicate register, panicking if out of range.
func P(n int) Pred {
	if n < 0 || n >= NumPreds {
		panic(fmt.Sprintf("isa: predicate P%d out of range [0,%d)", n, NumPreds))
	}
	return Pred(n)
}

// Guard is the predicate guard on an instruction: the instruction's lanes
// execute only where the (possibly negated) predicate holds.
type Guard struct {
	Pred Pred
	Neg  bool
}

// GuardAlways executes unconditionally.
var GuardAlways = Guard{Pred: PT}

// String returns the assembly prefix for the guard ("" when always-on).
func (g Guard) String() string {
	if g.Pred == PT && !g.Neg {
		return ""
	}
	if g.Neg {
		return "@!" + g.Pred.String() + " "
	}
	return "@" + g.Pred.String() + " "
}

// Special identifies a special (read-only, hardware-supplied) value
// readable with the S2R opcode.
type Special uint8

const (
	// SRTid is the thread index within its CTA.
	SRTid Special = iota
	// SRCTAid is the CTA index within the grid.
	SRCTAid
	// SRNTid is the number of threads per CTA.
	SRNTid
	// SRNCTAid is the number of CTAs in the grid.
	SRNCTAid
	// SRLane is the lane index of the thread within its warp.
	SRLane
	// SRWarpID is the warp index of the thread within its CTA.
	SRWarpID
	numSpecials
)

// String returns the assembly name of the special register.
func (s Special) String() string {
	switch s {
	case SRTid:
		return "SR_TID"
	case SRCTAid:
		return "SR_CTAID"
	case SRNTid:
		return "SR_NTID"
	case SRNCTAid:
		return "SR_NCTAID"
	case SRLane:
		return "SR_LANE"
	case SRWarpID:
		return "SR_WARPID"
	default:
		return fmt.Sprintf("SR_%d", uint8(s))
	}
}

// CmpOp is an integer/float comparison operator for SETP.
type CmpOp uint8

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// String returns the assembly suffix for the comparison.
func (c CmpOp) String() string {
	switch c {
	case CmpEQ:
		return "EQ"
	case CmpNE:
		return "NE"
	case CmpLT:
		return "LT"
	case CmpLE:
		return "LE"
	case CmpGT:
		return "GT"
	case CmpGE:
		return "GE"
	default:
		return fmt.Sprintf("CMP_%d", uint8(c))
	}
}

// MemValue is the specification of simulated memory contents: the
// deterministic value of global/shared memory at a byte address for a
// given seed. Loads inject data-dependent (but reproducible) values —
// this is what drives realistic branch divergence — while stores are
// timing/energy events whose values are never read back (workloads are
// written to avoid store-to-load dependencies). Both execution engines
// (the timed simulator and the reference interpreter) share this
// definition, so their functional behaviour can be compared exactly.
func MemValue(addr uint32, seed uint64) uint32 {
	x := uint64(addr)*0x9E3779B97F4A7C15 + seed
	x ^= x >> 29
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 32
	return uint32(x)
}

// Eval applies the comparison to two signed 32-bit values.
func (c CmpOp) Eval(a, b int32) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	default:
		panic(fmt.Sprintf("isa: unknown comparison %d", uint8(c)))
	}
}
