package sim

import "pilotrf/internal/isa"

// fullMask covers all 32 lanes of a warp.
const fullMask = ^uint32(0)

// simtEntry is one level of the SIMT reconvergence stack.
type simtEntry struct {
	pc   int
	rpc  int // reconvergence pc; -1 for the bottom entry
	mask uint32
}

// ctaCtx tracks one resident cooperative thread array.
type ctaCtx struct {
	id      int // CTA index within the grid
	warps   []*warpCtx
	live    int // warps not yet done
	arrived int // warps waiting at the barrier
}

// warpCtx is one resident warp: functional state (registers, predicates,
// SIMT stack) plus the timing state the pipeline model needs.
type warpCtx struct {
	slot     int // SM-local warp slot
	globalID int // unique across the kernel launch
	cta      *ctaCtx
	inCTA    int // warp index within the CTA

	stack []simtEntry
	regs  [][32]uint32
	preds [isa.NumPreds]uint32

	pendingRegs  uint64 // scoreboard: in-flight destination registers
	pendingPreds uint8  // scoreboard: in-flight predicate destinations

	blockedUntil int64
	atBarrier    bool
	done         bool
	inFlight     int // instructions past issue, before writeback
	memInFlight  int // outstanding global memory transactions

	finishCycle int64
	lastIssue   int64

	// execSeq counts the warp's executed (non-squashed, non-control)
	// instructions. It keys the dataflow digest, so it must advance
	// identically whether or not fault retries delayed the issue —
	// squashed issues therefore do not increment it.
	execSeq uint64
}

// launch starts a new warp in w, the storage of slot: its register rows
// are cleared, its SIMT stack holds one entry at pc 0 with the threads'
// lanes, and every other field is zero. A pending stuck-at fault in the
// slot therefore meets zero rows, as it would meet fresh ones.
func (w *warpCtx) launch(slot, globalID int, cta *ctaCtx, inCTA int, threads uint32) {
	clear(w.regs)
	*w = warpCtx{
		slot:     slot,
		globalID: globalID,
		cta:      cta,
		inCTA:    inCTA,
		regs:     w.regs,
		stack:    append(w.stack[:0], simtEntry{pc: 0, rpc: -1, mask: threads}),
	}
}

// vacant reports whether a slot holding w has no resident warp: nothing
// was ever launched into it (w is nil), or its warp's CTA has exited.
func (w *warpCtx) vacant() bool { return w == nil || w.cta == nil }

// top returns the active SIMT stack entry.
func (w *warpCtx) top() *simtEntry { return &w.stack[len(w.stack)-1] }

// activeMask returns the currently executing lane mask (0 when done).
func (w *warpCtx) activeMask() uint32 {
	if w.done || len(w.stack) == 0 {
		return 0
	}
	return w.top().mask
}

// pc returns the current program counter.
func (w *warpCtx) pc() int { return w.top().pc }

// normalize pops entries that reached their reconvergence point or lost
// all their lanes, and marks the warp functionally finished when the
// stack empties.
func (w *warpCtx) normalize() {
	for len(w.stack) > 0 {
		t := w.top()
		if t.mask == 0 || (t.rpc >= 0 && t.pc == t.rpc) {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		break
	}
}

// finished reports whether all lanes have exited (stack empty).
func (w *warpCtx) finished() bool { return len(w.stack) == 0 }

// advance moves past the current instruction (non-branch path).
func (w *warpCtx) advance() {
	w.top().pc++
	w.normalize()
}

// branch applies a (possibly divergent) branch at the current pc:
// takenMask lanes jump to target, the remaining active lanes fall
// through, and diverged paths reconverge at rpc. On divergence the
// current entry becomes the reconvergence entry and the split paths are
// pushed above it, taken path on top (executed first). Paths whose pc
// already equals rpc are not pushed — those lanes simply wait at the
// reconvergence entry (this covers both forward skip-branches and loop
// exits).
func (w *warpCtx) branch(takenMask uint32, target, rpc int) {
	t := w.top()
	fallthroughPC := t.pc + 1
	ntMask := t.mask &^ takenMask
	switch {
	case takenMask == 0:
		t.pc = fallthroughPC
	case ntMask == 0:
		t.pc = target
	default:
		t.pc = rpc
		w.pushPath(fallthroughPC, rpc, ntMask)
		w.pushPath(target, rpc, takenMask)
	}
	w.normalize()
}

func (w *warpCtx) pushPath(pc, rpc int, mask uint32) {
	if mask == 0 || pc == rpc {
		return
	}
	w.stack = append(w.stack, simtEntry{pc: pc, rpc: rpc, mask: mask})
}

// exitLanes removes lanes from every stack entry (thread termination),
// dropping entries that lose all lanes while preserving order.
func (w *warpCtx) exitLanes(mask uint32) {
	kept := w.stack[:0]
	for _, e := range w.stack {
		e.mask &^= mask
		if e.mask != 0 {
			kept = append(kept, e)
		}
	}
	w.stack = kept
	w.normalize()
}

// predMask returns the lane mask where the guard holds.
func (w *warpCtx) predMask(g isa.Guard) uint32 {
	var m uint32
	if g.Pred == isa.PT {
		m = fullMask
	} else {
		m = w.preds[g.Pred]
	}
	if g.Neg {
		m = ^m
	}
	return m
}
