// Package ref is a reference interpreter for the ISA: a purely
// functional executor with no pipeline, no banks, and no timing. It
// exists to validate the cycle-level simulator by differential testing —
// both engines must agree exactly on instruction counts, active-lane
// counts, register access histograms, and final register values, because
// the simulator's functional layer and this interpreter implement the
// same architectural specification independently.
package ref

import (
	"fmt"
	"math"

	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
	"pilotrf/internal/stats"
)

// Result is the interpreter's account of one kernel execution.
type Result struct {
	// WarpInstrs counts executed warp instructions; ThreadInstrs
	// weights them by active lanes.
	WarpInstrs   uint64
	ThreadInstrs uint64
	// RegReads/RegWrites count warp-level register operand accesses
	// (RZ excluded), exactly as the simulator counts them at issue.
	RegReads  uint64
	RegWrites uint64
	// RegHist is the per-architected-register access histogram.
	RegHist *stats.Histogram
}

// TotalAccesses returns reads plus writes.
func (r *Result) TotalAccesses() uint64 { return r.RegReads + r.RegWrites }

type simtEntry struct {
	pc   int
	rpc  int
	mask uint32
}

// warp is one warp's functional state.
type warp struct {
	inCTA   int
	ctaID   int
	ntid    int // threads per CTA (SR_NTID)
	nctaid  int // CTAs in the grid (SR_NCTAID)
	stack   []simtEntry
	regs    [][32]uint32
	preds   [isa.NumPreds]uint32
	atBar   bool
	retired bool
}

// Run interprets the kernel to completion and returns the execution
// account. seed selects the memory contents (isa.MemValue).
func Run(k *kernel.Kernel, seed uint64) (*Result, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	res := &Result{RegHist: stats.NewHistogram(k.Prog.NumRegs)}
	for cta := 0; cta < k.NumCTAs; cta++ {
		if err := runCTA(k, cta, seed, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runCTA interprets one CTA: warps run round-robin at barrier
// granularity (each warp executes until it hits a barrier or exits;
// barriers release when every live warp has arrived). Workloads carry no
// inter-warp data dependences, so this schedule is functionally
// equivalent to any other.
func runCTA(k *kernel.Kernel, ctaID int, seed uint64, res *Result) error {
	nWarps := k.WarpsPerCTA()
	warps := make([]*warp, nWarps)
	for i := range warps {
		threads := ^uint32(0)
		if rem := k.ThreadsPerCTA - i*32; rem < 32 {
			threads = (1 << uint(rem)) - 1
		}
		warps[i] = &warp{
			inCTA:  i,
			ctaID:  ctaID,
			ntid:   k.ThreadsPerCTA,
			nctaid: k.NumCTAs,
			regs:   make([][32]uint32, k.Prog.NumRegs),
			stack:  []simtEntry{{pc: 0, rpc: -1, mask: threads}},
		}
	}
	live := nWarps
	for live > 0 {
		progress := false
		arrived := 0
		for _, w := range warps {
			if w.retired || w.atBar {
				if w.atBar {
					arrived++
				}
				continue
			}
			stepped, err := runWarpUntilBarrier(k, w, seed, res)
			if err != nil {
				return err
			}
			progress = progress || stepped
			if w.retired {
				live--
			} else if w.atBar {
				arrived++
			}
		}
		// Barrier release: all live warps arrived.
		if live > 0 && arrived == live {
			for _, w := range warps {
				w.atBar = false
			}
			progress = true
		}
		if !progress && live > 0 {
			return fmt.Errorf("ref: CTA %d deadlocked at a barrier", ctaID)
		}
	}
	return nil
}

// runWarpUntilBarrier executes instructions until the warp blocks at a
// barrier or all lanes exit. It returns whether any instruction executed.
func runWarpUntilBarrier(k *kernel.Kernel, w *warp, seed uint64, res *Result) (bool, error) {
	stepped := false
	const fuel = 50_000_000 // runaway-loop backstop
	for i := 0; i < fuel; i++ {
		if len(w.stack) == 0 {
			w.retired = true
			return stepped, nil
		}
		in := k.Prog.At(w.top().pc)
		stepped = true
		if done := step(w, in, seed, res); done {
			return stepped, nil // barrier
		}
		if len(w.stack) == 0 {
			w.retired = true
			return stepped, nil
		}
	}
	return stepped, fmt.Errorf("ref: warp %d of CTA %d exceeded the instruction budget", w.inCTA, w.ctaID)
}

func (w *warp) top() *simtEntry { return &w.stack[len(w.stack)-1] }

func (w *warp) normalize() {
	for len(w.stack) > 0 {
		t := w.top()
		if t.mask == 0 || (t.rpc >= 0 && t.pc == t.rpc) {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		break
	}
}

func (w *warp) predMask(g isa.Guard) uint32 {
	var m uint32
	if g.Pred == isa.PT {
		m = ^uint32(0)
	} else {
		m = w.preds[g.Pred]
	}
	if g.Neg {
		m = ^m
	}
	return m
}

// count records the instruction's operand accesses, mirroring the
// simulator's at-issue accounting.
func count(in *isa.Instruction, res *Result) {
	var srcs [3]isa.Reg
	for _, r := range in.SrcRegs(srcs[:0]) {
		res.RegReads++
		res.RegHist.Inc(int(r))
	}
	if d, ok := in.DstReg(); ok {
		res.RegWrites++
		res.RegHist.Inc(int(d))
	}
}

func popcount(m uint32) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

// step executes one instruction; it returns true when the warp must wait
// at a barrier.
func step(w *warp, in *isa.Instruction, seed uint64, res *Result) bool {
	active := w.top().mask
	res.WarpInstrs++
	res.ThreadInstrs += uint64(popcount(active))

	switch in.Op {
	case isa.OpBRA:
		taken := active & w.predMask(in.Guard)
		t := w.top()
		fallthroughPC := t.pc + 1
		nt := t.mask &^ taken
		switch {
		case taken == 0:
			t.pc = fallthroughPC
		case nt == 0:
			t.pc = in.Target
		default:
			t.pc = in.Reconv
			if fallthroughPC != in.Reconv {
				w.stack = append(w.stack, simtEntry{pc: fallthroughPC, rpc: in.Reconv, mask: nt})
			}
			if in.Target != in.Reconv {
				w.stack = append(w.stack, simtEntry{pc: in.Target, rpc: in.Reconv, mask: taken})
			}
		}
		w.normalize()
		return false
	case isa.OpEXIT:
		exitMask := active & w.predMask(in.Guard)
		kept := w.stack[:0]
		for _, e := range w.stack {
			e.mask &^= exitMask
			if e.mask != 0 {
				kept = append(kept, e)
			}
		}
		w.stack = kept
		if len(w.stack) > 0 {
			// Lanes that did not exit continue past the EXIT.
			if exitMask != active {
				w.top().pc++
			}
			w.normalize()
		}
		return false
	case isa.OpBAR:
		w.top().pc++
		w.normalize()
		w.atBar = true
		return true
	case isa.OpNOP:
		w.top().pc++
		w.normalize()
		return false
	}

	execMask := active & w.predMask(in.Guard)
	if execMask != 0 {
		count(in, res)
		if in.Op == isa.OpSHFL {
			execShuffle(w, in, execMask)
		} else {
			for lane := 0; lane < 32; lane++ {
				if execMask&(1<<uint(lane)) != 0 {
					execLane(w, in, lane, seed)
				}
			}
		}
	}
	w.top().pc++
	w.normalize()
	return false
}

// execShuffle mirrors the cross-lane warp shuffle: read SrcA of the lane
// chosen by each lane's SrcB, via a snapshot so writes cannot interfere.
func execShuffle(w *warp, in *isa.Instruction, execMask uint32) {
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
}

// execLane applies one lane's semantics.
func execLane(w *warp, in *isa.Instruction, lane int, seed uint64) {
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
			return
		}
		bit := uint32(1) << uint(lane)
		if v {
			w.preds[in.PDst] |= bit
		} else {
			w.preds[in.PDst] &^= bit
		}
	}

	switch in.Op {
	case isa.OpMOV:
		wr(rd(in.SrcA))
	case isa.OpMOVI:
		wr(uint32(in.Imm))
	case isa.OpS2R:
		wr(specialValue(w, in.Special, lane))
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
		if int32(rd(in.SrcA)) < int32(rd(in.SrcB)) {
			wr(rd(in.SrcA))
		} else {
			wr(rd(in.SrcB))
		}
	case isa.OpIMAX:
		if int32(rd(in.SrcA)) > int32(rd(in.SrcB)) {
			wr(rd(in.SrcA))
		} else {
			wr(rd(in.SrcB))
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
		wr(floatResult(rdf(in.SrcA)+rdf(in.SrcB), rd(in.SrcA), rd(in.SrcB)))
	case isa.OpFMUL:
		wr(floatResult(rdf(in.SrcA)*rdf(in.SrcB), rd(in.SrcA), rd(in.SrcB)))
	case isa.OpFFMA:
		// The conversion rounds the product, so it is never fused with
		// the sum. A NaN product takes b's payload before a's, and a NaN
		// sum the product's before c's.
		p := float32(rdf(in.SrcA) * rdf(in.SrcB))
		wr(floatResult(p+rdf(in.SrcC), floatResult(p, rd(in.SrcB), rd(in.SrcA)), rd(in.SrcC)))
	case isa.OpFRCP:
		wrf(1 / rdf(in.SrcA))
	case isa.OpFSQRT:
		wrf(float32(math.Sqrt(math.Abs(float64(rdf(in.SrcA))))))
	case isa.OpFEXP:
		wrf(float32(math.Exp2(float64(rdf(in.SrcA)))))
	case isa.OpLDG, isa.OpLDS:
		wr(isa.MemValue(rd(in.SrcA)+uint32(in.Imm), seed))
	case isa.OpSTG, isa.OpSTS:
		// Store values are never read back; see isa.MemValue.
	default:
		panic(fmt.Sprintf("ref: unexpected opcode %v", in.Op))
	}
}

// floatResult encodes a float result. A NaN takes the payload of the
// first NaN among x and y with its quiet bit set, or the default NaN
// 0xFFC00000 when neither is one (an invalid operation such as
// Inf-Inf), so the bits depend neither on the host nor on the operand
// order a compiler picks.
func floatResult(v float32, x, y uint32) uint32 {
	if !math.IsNaN(float64(v)) {
		return math.Float32bits(v)
	}
	for _, op := range [2]uint32{x, y} {
		if math.IsNaN(float64(math.Float32frombits(op))) {
			return op | 1<<22
		}
	}
	return 0xFFC00000
}

func specialValue(w *warp, sp isa.Special, lane int) uint32 {
	switch sp {
	case isa.SRTid:
		return uint32(w.inCTA*32 + lane)
	case isa.SRCTAid:
		return uint32(w.ctaID)
	case isa.SRLane:
		return uint32(lane)
	case isa.SRWarpID:
		return uint32(w.inCTA)
	case isa.SRNTid:
		return uint32(w.ntid)
	case isa.SRNCTAid:
		return uint32(w.nctaid)
	default:
		panic(fmt.Sprintf("ref: unknown special %v", sp))
	}
}
