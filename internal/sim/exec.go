package sim

import (
	"fmt"
	"math"
	"math/bits"

	"pilotrf/internal/isa"
)

// execute applies the functional semantics of in to the lanes in
// execMask, one warp register row (32 lanes) at a time, as the register
// file serves operands. The opcode is dispatched once: each case computes
// all 32 lanes into a row on the stack, which is then merged into the
// destination under execMask. Every source row is read before that
// merge, so a destination that is also a source (SHFL's included) reads
// its old value on every lane. Computing inactive lanes is harmless:
// every operation is a pure function of its rows, and issue never calls
// execute with an empty mask. Control-flow opcodes are handled by the
// issue path, not here.
func (s *sm) execute(w *warpCtx, in *isa.Instruction, execMask uint32) {
	var out [32]uint32
	switch in.Op {
	case isa.OpNOP, isa.OpSTG, isa.OpSTS:
		// Stores are timing/energy events only; see isa.MemValue.
		return
	case isa.OpMOV:
		out = *w.row(in.SrcA)
	case isa.OpMOVI:
		fill(&out, uint32(in.Imm))
	case isa.OpS2R:
		for i := range out {
			out[i] = s.specialValue(w, in.Special, i)
		}
	case isa.OpIADD:
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case isa.OpIADDI:
		a, imm := w.row(in.SrcA), uint32(in.Imm)
		for i := range out {
			out[i] = a[i] + imm
		}
	case isa.OpISUB:
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case isa.OpIMUL:
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		for i := range out {
			out[i] = a[i] * b[i]
		}
	case isa.OpIMULI:
		a, imm := w.row(in.SrcA), uint32(in.Imm)
		for i := range out {
			out[i] = a[i] * imm
		}
	case isa.OpIMAD:
		a, b, c := w.row(in.SrcA), w.row(in.SrcB), w.row(in.SrcC)
		for i := range out {
			out[i] = a[i]*b[i] + c[i]
		}
	case isa.OpAND:
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		for i := range out {
			out[i] = a[i] & b[i]
		}
	case isa.OpANDI:
		a, imm := w.row(in.SrcA), uint32(in.Imm)
		for i := range out {
			out[i] = a[i] & imm
		}
	case isa.OpOR:
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		for i := range out {
			out[i] = a[i] | b[i]
		}
	case isa.OpXOR:
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		for i := range out {
			out[i] = a[i] ^ b[i]
		}
	case isa.OpSHLI:
		a, sh := w.row(in.SrcA), uint32(in.Imm)&31
		for i := range out {
			out[i] = a[i] << sh
		}
	case isa.OpSHRI:
		a, sh := w.row(in.SrcA), uint32(in.Imm)&31
		for i := range out {
			out[i] = a[i] >> sh
		}
	case isa.OpIMIN:
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		for i := range out {
			out[i] = b[i]
			if int32(a[i]) < int32(b[i]) {
				out[i] = a[i]
			}
		}
	case isa.OpIMAX:
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		for i := range out {
			out[i] = b[i]
			if int32(a[i]) > int32(b[i]) {
				out[i] = a[i]
			}
		}
	case isa.OpSEL:
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		sel := w.predMask(isa.Guard{Pred: in.SrcPred})
		for i := range out {
			m := -(sel >> i & 1)
			out[i] = a[i]&m | b[i]&^m
		}
	case isa.OpSHFL:
		// Kepler-style warp shuffle: each lane reads SrcA of the lane
		// its own SrcB selects (mod 32).
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		for i := range out {
			out[i] = a[b[i]&31]
		}
	case isa.OpSETP:
		w.setPred(in.PDst, compare(in.Cmp, w.row(in.SrcA), w.row(in.SrcB)), execMask)
		return
	case isa.OpSETPI:
		fill(&out, uint32(in.Imm))
		w.setPred(in.PDst, compare(in.Cmp, w.row(in.SrcA), &out), execMask)
		return
	case isa.OpFADD:
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		for i := range out {
			out[i] = f32Result(f32(a[i])+f32(b[i]), a[i], b[i])
		}
	case isa.OpFMUL:
		a, b := w.row(in.SrcA), w.row(in.SrcB)
		for i := range out {
			out[i] = f32Result(f32(a[i])*f32(b[i]), a[i], b[i])
		}
	case isa.OpFFMA:
		// The explicit conversion rounds the product, so the compiler
		// may not fuse it with the sum. A NaN result takes the first-NaN
		// rule on the product as b then a, then on the sum as product
		// then c.
		a, b, c := w.row(in.SrcA), w.row(in.SrcB), w.row(in.SrcC)
		for i := range out {
			p := float32(f32(a[i]) * f32(b[i]))
			if r := p + f32(c[i]); r == r {
				out[i] = math.Float32bits(r)
			} else {
				out[i] = f32Result(r, f32Result(p, b[i], a[i]), c[i])
			}
		}
	case isa.OpFRCP:
		a := w.row(in.SrcA)
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m) & 31
			out[i] = math.Float32bits(1 / f32(a[i]))
		}
	case isa.OpFSQRT:
		a := w.row(in.SrcA)
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m) & 31
			out[i] = math.Float32bits(float32(math.Sqrt(math.Abs(float64(f32(a[i]))))))
		}
	case isa.OpFEXP:
		a := w.row(in.SrcA)
		for m := execMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m) & 31
			out[i] = math.Float32bits(float32(math.Exp2(float64(f32(a[i])))))
		}
	case isa.OpLDG, isa.OpLDS:
		a, imm := w.row(in.SrcA), uint32(in.Imm)
		for i := range out {
			out[i] = isa.MemValue(a[i]+imm, s.cfg.Seed)
		}
	default:
		panic(fmt.Sprintf("sim: opcode %v reached the execution unit", in.Op))
	}
	w.writeRow(in.Dst, &out, execMask)
}

// zeroRow is the row that RZ and an unused operand slot read.
var zeroRow [32]uint32

// row returns register r's 32 lanes; RZ and RegNone read as zeros.
func (w *warpCtx) row(r isa.Reg) *[32]uint32 {
	if !r.Valid() {
		return &zeroRow
	}
	return &w.regs[r]
}

// writeRow merges v into register d on the lanes in mask: a whole-row
// copy when every lane is active, a walk over the set bits otherwise.
// Writes to RZ are discarded.
func (w *warpCtx) writeRow(d isa.Reg, v *[32]uint32, mask uint32) {
	if !d.Valid() {
		return
	}
	dst := &w.regs[d]
	if mask == fullMask {
		*dst = *v
		return
	}
	for ; mask != 0; mask &= mask - 1 {
		i := bits.TrailingZeros32(mask) & 31
		dst[i] = v[i]
	}
}

// setPred writes res into predicate p on the lanes in mask. PT is
// read-only.
func (w *warpCtx) setPred(p isa.Pred, res, mask uint32) {
	if p.Valid() {
		w.preds[p] = w.preds[p]&^mask | res&mask
	}
}

// fill sets every lane of row to v.
func fill(row *[32]uint32, v uint32) {
	for i := range row {
		row[i] = v
	}
}

// compare returns the lanes where a op b holds, comparing as signed
// 32-bit values. Each operator is one loop over the lanes: LT, GT and EQ
// directly, GE, LE and NE as their complements.
func compare(op isa.CmpOp, a, b *[32]uint32) uint32 {
	var m uint32
	switch op {
	case isa.CmpEQ, isa.CmpNE:
		for i := range a {
			if a[i] == b[i] {
				m |= 1 << i
			}
		}
	case isa.CmpLT, isa.CmpGE:
		for i := range a {
			if int32(a[i]) < int32(b[i]) {
				m |= 1 << i
			}
		}
	case isa.CmpGT, isa.CmpLE:
		for i := range a {
			if int32(a[i]) > int32(b[i]) {
				m |= 1 << i
			}
		}
	default:
		panic(fmt.Sprintf("sim: unknown comparison %d", uint8(op)))
	}
	if op == isa.CmpNE || op == isa.CmpGE || op == isa.CmpLE {
		m = ^m
	}
	return m
}

// f32 reads a register lane as a float32.
func f32(v uint32) float32 { return math.Float32frombits(v) }

// Float NaN results follow an explicit rule instead of the host's: when
// two inputs are NaN, SSE returns whichever operand the compiler placed
// first, so the payload would change with code generation.
const (
	f32QuietBit   = 0x00400000
	f32DefaultNaN = 0xFFC00000 // an invalid operation's result, such as Inf-Inf
)

// f32Result returns r's bits when r is a number. When r is NaN it
// applies the first-NaN rule to the operation's inputs x then y: the
// first NaN input is returned with its quiet bit set, and an invalid
// operation on numbers returns the default NaN.
func f32Result(r float32, x, y uint32) uint32 {
	if r == r {
		return math.Float32bits(r)
	}
	switch {
	case x&0x7FFFFFFF > 0x7F800000:
		return x | f32QuietBit
	case y&0x7FFFFFFF > 0x7F800000:
		return y | f32QuietBit
	}
	return f32DefaultNaN
}

// specialValue supplies S2R reads.
func (s *sm) specialValue(w *warpCtx, sp isa.Special, lane int) uint32 {
	switch sp {
	case isa.SRTid:
		return uint32(w.inCTA*32 + lane)
	case isa.SRCTAid:
		return uint32(w.cta.id)
	case isa.SRNTid:
		return uint32(s.run.kern.ThreadsPerCTA)
	case isa.SRNCTAid:
		return uint32(s.run.kern.NumCTAs)
	case isa.SRLane:
		return uint32(lane)
	case isa.SRWarpID:
		return uint32(w.inCTA)
	default:
		panic(fmt.Sprintf("sim: unknown special register %v", sp))
	}
}
