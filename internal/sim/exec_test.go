package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
)

// executeLaneRef is the per-lane execution unit that the row unit
// replaced, kept as its reference: it dispatches the opcode once per
// active lane and reaches registers through closures. Only its SEL
// changed: it reads the selector through predMask, so PT selects SrcA.
//
// Its float results come from the host, so when two operands are NaN the
// payload follows the operand order the compiler picks. An optimized
// build returns a's for FADD and FMUL and b's for FFMA's product, as the
// goldens record; an unoptimized one (-gcflags=all='-N -l') returns b's
// for FADD, and TestExecuteMatchesLaneReference then fails on the
// reference, not on the row unit (TestExecuteNaNRule still passes).
func (s *sm) executeLaneRef(w *warpCtx, in *isa.Instruction, execMask uint32) {
	if in.Op == isa.OpSHFL {
		var src [32]uint32
		if in.SrcA != isa.RZ {
			src = w.regs[in.SrcA]
		}
		for lane := 0; lane < 32; lane++ {
			if execMask&(1<<uint(lane)) == 0 {
				continue
			}
			sel := 0
			if in.SrcB != isa.RZ {
				sel = int(w.regs[in.SrcB][lane] & 31)
			}
			if in.Dst != isa.RZ {
				w.regs[in.Dst][lane] = src[sel]
			}
		}
		return
	}
	for lane := 0; lane < 32; lane++ {
		if execMask&(1<<uint(lane)) != 0 {
			s.laneRef(w, in, lane)
		}
	}
}

func (s *sm) laneRef(w *warpCtx, in *isa.Instruction, lane int) {
	rd := func(r isa.Reg) uint32 {
		if r == isa.RZ {
			return 0
		}
		return w.regs[r][lane]
	}
	wr := func(v uint32) {
		if in.Dst == isa.RZ {
			return
		}
		w.regs[in.Dst][lane] = v
	}
	rdf := func(r isa.Reg) float32 { return math.Float32frombits(rd(r)) }
	wrf := func(v float32) { wr(math.Float32bits(v)) }
	setp := func(v bool) {
		if !in.PDst.Valid() {
			return // PT is read-only
		}
		bit := uint32(1) << uint(lane)
		if v {
			w.preds[in.PDst] |= bit
		} else {
			w.preds[in.PDst] &^= bit
		}
	}

	switch in.Op {
	case isa.OpNOP:
	case isa.OpMOV:
		wr(rd(in.SrcA))
	case isa.OpMOVI:
		wr(uint32(in.Imm))
	case isa.OpS2R:
		wr(s.specialValue(w, in.Special, lane))
	case isa.OpIADD:
		wr(rd(in.SrcA) + rd(in.SrcB))
	case isa.OpIADDI:
		wr(rd(in.SrcA) + uint32(in.Imm))
	case isa.OpISUB:
		wr(rd(in.SrcA) - rd(in.SrcB))
	case isa.OpIMUL:
		wr(rd(in.SrcA) * rd(in.SrcB))
	case isa.OpIMULI:
		wr(rd(in.SrcA) * uint32(in.Imm))
	case isa.OpIMAD:
		wr(rd(in.SrcA)*rd(in.SrcB) + rd(in.SrcC))
	case isa.OpAND:
		wr(rd(in.SrcA) & rd(in.SrcB))
	case isa.OpANDI:
		wr(rd(in.SrcA) & uint32(in.Imm))
	case isa.OpOR:
		wr(rd(in.SrcA) | rd(in.SrcB))
	case isa.OpXOR:
		wr(rd(in.SrcA) ^ rd(in.SrcB))
	case isa.OpSHLI:
		wr(rd(in.SrcA) << (uint32(in.Imm) & 31))
	case isa.OpSHRI:
		wr(rd(in.SrcA) >> (uint32(in.Imm) & 31))
	case isa.OpIMIN:
		a, b := int32(rd(in.SrcA)), int32(rd(in.SrcB))
		if a < b {
			wr(uint32(a))
		} else {
			wr(uint32(b))
		}
	case isa.OpIMAX:
		a, b := int32(rd(in.SrcA)), int32(rd(in.SrcB))
		if a > b {
			wr(uint32(a))
		} else {
			wr(uint32(b))
		}
	case isa.OpSEL:
		if w.predMask(isa.Guard{Pred: in.SrcPred})&(1<<uint(lane)) != 0 {
			wr(rd(in.SrcA))
		} else {
			wr(rd(in.SrcB))
		}
	case isa.OpSETP:
		setp(in.Cmp.Eval(int32(rd(in.SrcA)), int32(rd(in.SrcB))))
	case isa.OpSETPI:
		setp(in.Cmp.Eval(int32(rd(in.SrcA)), in.Imm))
	case isa.OpFADD:
		wrf(rdf(in.SrcA) + rdf(in.SrcB))
	case isa.OpFMUL:
		wrf(rdf(in.SrcA) * rdf(in.SrcB))
	case isa.OpFFMA:
		wrf(rdf(in.SrcA)*rdf(in.SrcB) + rdf(in.SrcC))
	case isa.OpFRCP:
		wrf(1 / rdf(in.SrcA))
	case isa.OpFSQRT:
		wrf(float32(math.Sqrt(math.Abs(float64(rdf(in.SrcA))))))
	case isa.OpFEXP:
		wrf(float32(math.Exp2(float64(rdf(in.SrcA)))))
	case isa.OpLDG, isa.OpLDS:
		wr(isa.MemValue(rd(in.SrcA)+uint32(in.Imm), s.cfg.Seed))
	case isa.OpSTG, isa.OpSTS:
	default:
		panic(fmt.Sprintf("sim: opcode %v reached the execution unit", in.Op))
	}
}

// execOps lists every opcode that reaches the execution unit, with the
// number of general-register sources it reads (SrcA, SrcB, SrcC in that
// order).
var execOps = []struct {
	op   isa.Op
	nsrc int
}{
	{isa.OpNOP, 0}, {isa.OpMOV, 1}, {isa.OpMOVI, 0}, {isa.OpS2R, 0},
	{isa.OpIADD, 2}, {isa.OpIADDI, 1}, {isa.OpISUB, 2}, {isa.OpIMUL, 2},
	{isa.OpIMULI, 1}, {isa.OpIMAD, 3}, {isa.OpAND, 2}, {isa.OpANDI, 1},
	{isa.OpOR, 2}, {isa.OpXOR, 2}, {isa.OpSHLI, 1}, {isa.OpSHRI, 1},
	{isa.OpIMIN, 2}, {isa.OpIMAX, 2}, {isa.OpSEL, 2}, {isa.OpSHFL, 2},
	{isa.OpSETP, 2}, {isa.OpSETPI, 1},
	{isa.OpFADD, 2}, {isa.OpFMUL, 2}, {isa.OpFFMA, 3},
	{isa.OpFRCP, 1}, {isa.OpFSQRT, 1}, {isa.OpFEXP, 1},
	{isa.OpLDG, 1}, {isa.OpSTG, 2}, {isa.OpLDS, 1}, {isa.OpSTS, 2},
}

// execOpIndex returns op's index in execOps.
func execOpIndex(op isa.Op) uint8 {
	for i, e := range execOps {
		if e.op == op {
			return uint8(i)
		}
	}
	panic(fmt.Sprintf("%v is not in execOps", op))
}

// execRegs is the register count of the execution tests' warps.
const execRegs = 6

// execInstr builds an instruction of op with destination dst (ignored
// when op writes no register), the first nsrc of srcs as sources, pred
// as its predicate destination (SETP, SETPI) or selector (SEL), and
// unused slots set to RegNone and PredNone, as the assembler leaves them.
func execInstr(op isa.Op, nsrc int, dst isa.Reg, srcs [3]isa.Reg, pred isa.Pred, cmp isa.CmpOp, sp isa.Special, imm int32) isa.Instruction {
	in := isa.Instruction{
		Op: op, Guard: isa.GuardAlways, Dst: dst,
		SrcA: isa.RegNone, SrcB: isa.RegNone, SrcC: isa.RegNone,
		PDst: isa.PredNone, SrcPred: isa.PredNone,
		Cmp: cmp, Special: sp, Imm: imm,
	}
	slots := [3]*isa.Reg{&in.SrcA, &in.SrcB, &in.SrcC}
	for i := 0; i < nsrc; i++ {
		*slots[i] = srcs[i]
	}
	switch op {
	case isa.OpNOP, isa.OpSETP, isa.OpSETPI, isa.OpSTG, isa.OpSTS:
		in.Dst = isa.RegNone
	}
	switch op {
	case isa.OpSETP, isa.OpSETPI:
		in.PDst = pred
	case isa.OpSEL:
		in.SrcPred = pred
	}
	return in
}

// execFixture returns an SM and a warp on it for calling execute
// directly: warp 2 of CTA 5 in a 4-CTA, 96-thread kernel, memory seed 7.
func execFixture() (*sm, *warpCtx) {
	cfg := testConfig()
	cfg.Seed = 7
	b := kernel.NewBuilder("exec", execRegs)
	b.EXIT()
	k := &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 96, NumCTAs: 4}
	s := &sm{cfg: &cfg, run: &runState{cfg: &cfg, kern: k}}
	w := &warpCtx{regs: make([][32]uint32, k.Prog.NumRegs)}
	w.launch(3, 17, &ctaCtx{id: 5}, 2, fullMask)
	return s, w
}

// specialLanes are float and integer values where a row unit can go
// wrong: signed zeros, infinities, NaNs with distinct payloads, both
// signs and both quiet bits, the extremes of int32, and shuffle lanes.
var specialLanes = []uint32{
	0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
	0x7F800001, 0x7F800002, 0xFF800003, 0x7FBFFFFF,
	0x7FC00000, 0x7FC00005, 0xFFC00000, 0xFFC00007, 0xFFFFFFFF,
	0x3F800000, 0xBF800000, 0x00000001, 0x807FFFFF, 0x7F7FFFFF,
	0x7FFFFFFF, 1, 2, 5, 31, 32, 33,
}

// biasedLane draws a lane value: a special value half the time, a small
// integer a quarter, random bits otherwise.
func biasedLane(rng *rand.Rand) uint32 {
	switch rng.IntN(4) {
	case 0, 1:
		return specialLanes[rng.IntN(len(specialLanes))]
	case 2:
		return uint32(rng.IntN(65) - 32)
	}
	return rng.Uint32()
}

// checkExecute runs in under mask through the row unit and through the
// per-lane reference, each on its own copy of w, and fails t unless
// every register row and predicate agree.
func checkExecute(t *testing.T, s *sm, w *warpCtx, in *isa.Instruction, mask uint32) {
	t.Helper()
	got, want := cloneWarp(w), cloneWarp(w)
	s.execute(got, in, mask)
	s.executeLaneRef(want, in, mask)
	for r := range want.regs {
		for lane := range want.regs[r] {
			if g, x := got.regs[r][lane], want.regs[r][lane]; g != x {
				t.Fatalf("%v mask %#x: R%d lane %d = %#x, want %#x (sources on that lane: %s)",
					in, mask, r, lane, g, x, laneInputs(w, in, lane))
			}
		}
	}
	if got.preds != want.preds {
		t.Fatalf("%v mask %#x: predicates %#x, want %#x", in, mask, got.preds, want.preds)
	}
}

func cloneWarp(w *warpCtx) *warpCtx {
	c := *w
	c.regs = append([][32]uint32(nil), w.regs...)
	return &c
}

func laneInputs(w *warpCtx, in *isa.Instruction, lane int) string {
	s := ""
	for _, r := range [3]isa.Reg{in.SrcA, in.SrcB, in.SrcC} {
		if r.Valid() {
			s += fmt.Sprintf(" %s=%#x", r, w.regs[r][lane])
		}
	}
	return s
}

// TestExecuteMatchesLaneReference compares the row unit with the
// per-lane reference on every opcode that reaches execute, every
// comparison, special register and predicate operand (PT and P0-P6),
// full, partial and single-lane masks, RZ in each source slot and a
// destination equal to each source. The first round's lanes are all
// NaNs with distinct payloads; the others are biased to signed zeros,
// infinities, NaNs and int32 extremes.
func TestExecuteMatchesLaneReference(t *testing.T) {
	s, w := execFixture()
	rng := rand.New(rand.NewPCG(1, 2))
	covered := map[isa.Op]bool{}
	for _, e := range execOps {
		covered[e.op] = true
		// Operand forms: plain, RZ in each source slot, the
		// destination equal to each source, and a discarded RZ write.
		type form struct {
			dst  isa.Reg
			srcs [3]isa.Reg
		}
		forms := []form{{0, [3]isa.Reg{1, 2, 3}}, {isa.RZ, [3]isa.Reg{1, 2, 3}}}
		for j := 0; j < e.nsrc; j++ {
			rz, alias := form{0, [3]isa.Reg{1, 2, 3}}, form{0, [3]isa.Reg{1, 2, 3}}
			rz.srcs[j] = isa.RZ
			alias.dst = alias.srcs[j]
			forms = append(forms, rz, alias)
		}
		cmps, specials, preds := []isa.CmpOp{isa.CmpEQ}, []isa.Special{isa.SRTid}, []isa.Pred{isa.PT}
		switch e.op {
		case isa.OpSETP, isa.OpSETPI:
			cmps = []isa.CmpOp{isa.CmpEQ, isa.CmpNE, isa.CmpLT, isa.CmpLE, isa.CmpGT, isa.CmpGE}
			fallthrough
		case isa.OpSEL:
			preds = []isa.Pred{0, 1, 2, 3, 4, 5, 6, isa.PT}
		case isa.OpS2R:
			specials = []isa.Special{isa.SRTid, isa.SRCTAid, isa.SRNTid, isa.SRNCTAid, isa.SRLane, isa.SRWarpID}
		}
		for round := 0; round < 4; round++ {
			for r := range w.regs {
				for lane := range w.regs[r] {
					if round == 0 {
						w.regs[r][lane] = 0x7F800001 + uint32(r*32+lane)<<12 ^ uint32(lane&1)<<22 ^ uint32(r&1)<<31
					} else {
						w.regs[r][lane] = biasedLane(rng)
					}
				}
			}
			for p := range w.preds {
				w.preds[p] = rng.Uint32()
			}
			imm := int32(biasedLane(rng))
			single := uint32(1) << rng.IntN(32)
			for _, mask := range []uint32{fullMask, 0x5A5A0FF0, rng.Uint32() | 1, 1, 1 << 31, single} {
				for _, f := range forms {
					for _, c := range cmps {
						for _, sp := range specials {
							for _, p := range preds {
								in := execInstr(e.op, e.nsrc, f.dst, f.srcs, p, c, sp, imm)
								checkExecute(t, s, w, &in, mask)
							}
						}
					}
				}
			}
		}
	}
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if op.ClassOf() != isa.ClassCtrl && !covered[op] {
			t.Errorf("%v reaches the execution unit but is not in execOps", op)
		}
	}
}

// TestExecuteNaNRule pins the NaN payloads the row unit returns: the
// first NaN operand, quieted, and the default NaN for an invalid
// operation. FFMA takes the product's operands as b then a, and the
// sum's as product then c.
func TestExecuteNaNRule(t *testing.T) {
	s, w := execFixture()
	for _, c := range []struct {
		op      isa.Op
		a, b, c uint32
		want    uint32
	}{
		{isa.OpFFMA, 0x7F800001, 0x7F800002, 0, 0x7FC00002},
		{isa.OpFFMA, 0x7F800001, 0x3F800000, 0x7F800003, 0x7FC00001},
		{isa.OpFFMA, 0x3F800000, 0x3F800000, 0xFF800004, 0xFFC00004},
		{isa.OpFFMA, 0x7F800000, 0x00000000, 0x7F800005, 0xFFC00000},
		{isa.OpFFMA, 0x7F800000, 0x3F800000, 0xFF800000, 0xFFC00000},
		{isa.OpFADD, 0x7F800001, 0x7F800002, 0, 0x7FC00001},
		{isa.OpFADD, 0x3F800000, 0xFF800002, 0, 0xFFC00002},
		{isa.OpFADD, 0x7F800000, 0xFF800000, 0, 0xFFC00000},
		{isa.OpFMUL, 0xFF800001, 0x7F800002, 0, 0xFFC00001},
		{isa.OpFMUL, 0x00000000, 0xFF800000, 0, 0xFFC00000},
	} {
		w.regs[1][9], w.regs[2][9], w.regs[3][9] = c.a, c.b, c.c
		nsrc := 2
		if c.op == isa.OpFFMA {
			nsrc = 3
		}
		in := execInstr(c.op, nsrc, 0, [3]isa.Reg{1, 2, 3}, isa.PT, 0, 0, 0)
		s.execute(w, &in, 1<<9)
		if got := w.regs[0][9]; got != c.want {
			t.Errorf("%v(%#x, %#x, %#x) = %#x, want %#x", c.op, c.a, c.b, c.c, got, c.want)
		}
	}
}

// FuzzExecuteRow checks the row unit against the per-lane reference on
// one instruction. The fuzz input chooses the opcode (index into
// execOps), the destination and sources (a register, or RZ), the
// predicate operand (P0-P6 or PT), the comparison and special register,
// the immediate, the execution mask (0 runs all lanes), the predicates'
// initial bits and the lane values: four bytes per lane, little-endian,
// reused from the start when the bytes run out.
func FuzzExecuteRow(f *testing.F) {
	nans := make([]byte, 0, 4*32*3)
	for i := uint32(0); i < 32*3; i++ {
		nans = binary.LittleEndian.AppendUint32(nans, 0x7F800001+i<<8^(i&1)<<22)
	}
	f.Add(execOpIndex(isa.OpFFMA), uint8(0), uint8(1), uint8(2), uint8(3), uint8(7), uint8(0), int32(0), fullMask, uint32(0), nans)
	f.Add(execOpIndex(isa.OpFADD), uint8(1), uint8(1), uint8(2), uint8(6), uint8(0), uint8(0), int32(0), uint32(0x0000FF00), uint32(0), []byte{0, 0, 0x80, 0x7F, 0, 0, 0x80, 0xFF})
	f.Add(execOpIndex(isa.OpSHFL), uint8(2), uint8(1), uint8(2), uint8(3), uint8(0), uint8(0), int32(0), uint32(0x80000001), uint32(0), []byte{3, 0, 0, 0, 30, 0, 0, 0, 17})
	f.Add(execOpIndex(isa.OpSEL), uint8(0), uint8(1), uint8(2), uint8(3), uint8(7), uint8(0), int32(0), uint32(0xF0F0F0F0), uint32(0x12345678), []byte{1, 2, 3, 4, 5})
	f.Add(execOpIndex(isa.OpSETPI), uint8(0), uint8(1), uint8(2), uint8(3), uint8(3), uint8(4), int32(-1), uint32(0x00FF00FF), uint32(0xDEADBEEF), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, op, dst, srcA, srcB, srcC, pred, sel uint8, imm int32, mask, predBits uint32, lanes []byte) {
		reg := func(b uint8) isa.Reg {
			if r := b % (execRegs + 1); r < execRegs {
				return isa.Reg(r)
			}
			return isa.RZ
		}
		e := execOps[int(op)%len(execOps)]
		in := execInstr(e.op, e.nsrc, reg(dst), [3]isa.Reg{reg(srcA), reg(srcB), reg(srcC)},
			isa.Pred(pred%(isa.NumPreds+1)), isa.CmpOp(sel%6), isa.Special(sel%6), imm)
		if mask == 0 {
			mask = fullMask
		}
		s, w := execFixture()
		for k := 0; k < execRegs*32 && len(lanes) > 0; k++ {
			var b [4]byte
			for j := range b {
				b[j] = lanes[(4*k+j)%len(lanes)]
			}
			w.regs[k/32][k%32] = binary.LittleEndian.Uint32(b[:])
		}
		for p := range w.preds {
			w.preds[p] = predBits ^ uint32(p)*0x9E3779B9
		}
		checkExecute(t, s, w, &in, mask)
	})
}

// BenchmarkExecute prices the row unit over a fixed mix: every opcode
// that reaches execute (each ALU, FPU, SFU and memory opcode), once with
// every lane active and once with half of them, on lanes drawn by
// biasedLane. It reports ns per warp instruction and fails if an
// instruction allocates.
func BenchmarkExecute(b *testing.B) {
	s, w := execFixture()
	rng := rand.New(rand.NewPCG(3, 4))
	for r := range w.regs {
		for lane := range w.regs[r] {
			w.regs[r][lane] = biasedLane(rng)
		}
	}
	type step struct {
		in   isa.Instruction
		mask uint32
	}
	var mix []step
	for _, mask := range []uint32{fullMask, 0x0F0F0F0F} {
		for _, e := range execOps {
			in := execInstr(e.op, e.nsrc, 0, [3]isa.Reg{1, 2, 3}, 1, isa.CmpLT, isa.SRTid, 4)
			mix = append(mix, step{in, mask})
		}
	}
	run := func() {
		for i := range mix {
			s.execute(w, &mix[i].in, mix[i].mask)
		}
	}
	if a := testing.AllocsPerRun(10, run); a != 0 {
		b.Fatalf("the mix of %d instructions allocates %v times", len(mix), a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(mix)), "ns/winstr")
}
