package sim

import "math/bits"

// schedState is one of the SM's warp schedulers. Warps are statically
// partitioned among schedulers by slot (slot % numSchedulers), so
// slots[i] is slot id + i*numSchedulers.
type schedState struct {
	id    int
	slots []int // warp slots owned by this scheduler

	// parked has bit i set while slots[i] cannot issue until an SM event
	// clears the bit. A probe sets it when the slot is empty, its warp
	// has retired or its SIMT stack has emptied, which only launchCTA,
	// filling the slot, ends; or when the warp waits on a pending
	// register or predicate, which ends when one of the warp's pending
	// bits clears. The pick loops skip parked slots, so they probe only
	// live warps.
	parked uint64

	// rrPtr is the round-robin rotation pointer (LRR, and TL's active
	// pool rotation).
	rrPtr int
	// greedy is the index into slots of the last warp GTO issued from
	// (-1 when none).
	greedy int
	// fgPtr is the current fetch group (PolicyFetchGroup).
	fgPtr int

	// Two-level scheduler state: warp slots.
	active  []int // active pool (FIFO order)
	pending []int // demoted warps awaiting promotion
}

func newSchedState(id int, slots []int, policy Policy, activePool int) *schedState {
	s := &schedState{id: id, slots: slots, greedy: -1}
	if policy == PolicyTL {
		for i, slot := range slots {
			if i < activePool {
				s.active = append(s.active, slot)
			} else {
				s.pending = append(s.pending, slot)
			}
		}
	}
	return s
}

// isParked reports whether slots[i]'s warp is parked.
func (sc *schedState) isParked(i int) bool { return sc.parked&(1<<uint(i)) != 0 }

// pickWarp returns the next warp slot to attempt issue from, or -1,
// probing candidates with sm.canIssue. A probe can have a side effect:
// it counts one CollectorStalls when it fails on the collector hazard,
// and pickGTO probes a stalled greedy warp twice (once as the greedy
// warp, once in its oldest-first scan). The number and order of those
// probes are therefore part of the pinned statistics. A parked slot is
// skipped without a probe: its probe would fail on residency or the
// scoreboard before the collector check, so it would have no side
// effect.
func (sc *schedState) pickWarp(sm *sm) int {
	switch sm.cfg.Policy {
	case PolicyLRR:
		return sc.pickLRR(sm)
	case PolicyGTO:
		return sc.pickGTO(sm)
	case PolicyTL:
		return sc.pickTL(sm)
	case PolicyFetchGroup:
		return sc.pickFetchGroup(sm)
	default:
		panic("sim: unknown scheduler policy")
	}
}

func (sc *schedState) pickLRR(sm *sm) int {
	n := len(sc.slots)
	for j := 0; j < n; j++ {
		i := (sc.rrPtr + j) % n
		if !sc.isParked(i) && sm.canIssue(sc, i) {
			sc.rrPtr = (i + 1) % n
			return sc.slots[i]
		}
	}
	return -1
}

// pickGTO keeps issuing from the greedy warp; when it stalls, it selects
// the oldest ready warp (lowest global id, i.e. earliest launched).
func (sc *schedState) pickGTO(sm *sm) int {
	if g := sc.greedy; g >= 0 && !sc.isParked(g) && sm.canIssue(sc, g) {
		return sc.slots[g]
	}
	best, bestAge := -1, int(^uint(0)>>1)
	unparked := ^sc.parked & (^uint64(0) >> uint(64-len(sc.slots)))
	for ; unparked != 0; unparked &= unparked - 1 {
		i := bits.TrailingZeros64(unparked)
		if !sm.canIssue(sc, i) {
			continue
		}
		if id := sm.warps[sc.slots[i]].globalID; id < bestAge {
			best, bestAge = i, id
		}
	}
	sc.greedy = best
	if best < 0 {
		return -1
	}
	return sc.slots[best]
}

// pickTL round-robins within the active pool only.
func (sc *schedState) pickTL(sm *sm) int {
	n := len(sc.active)
	for j := 0; j < n; j++ {
		slot := sc.active[(sc.rrPtr+j)%n]
		i := slot / len(sm.schedulers)
		if !sc.isParked(i) && sm.canIssue(sc, i) {
			sc.rrPtr = (sc.rrPtr + j + 1) % n
			return slot
		}
	}
	return -1
}

// pickFetchGroup scans the current fetch group round-robin; only when it
// has nothing ready does the scheduler advance to the next group, so
// groups hit their long-latency operations at staggered times.
func (sc *schedState) pickFetchGroup(sm *sm) int {
	n := len(sc.slots)
	groupSize := sm.cfg.FetchGroupWarps
	if groupSize > n {
		groupSize = n
	}
	groups := (n + groupSize - 1) / groupSize
	for g := 0; g < groups; g++ {
		gi := (sc.fgPtr + g) % groups
		lo := gi * groupSize
		hi := lo + groupSize
		if hi > n {
			hi = n
		}
		for j := 0; j < hi-lo; j++ {
			i := lo + (sc.rrPtr+j)%(hi-lo)
			if !sc.isParked(i) && sm.canIssue(sc, i) {
				sc.rrPtr = (sc.rrPtr + j + 1) % (hi - lo)
				sc.fgPtr = gi
				return sc.slots[i]
			}
		}
	}
	return -1
}

// demote moves a warp from the active pool to the pending list (TL only):
// called when the warp issues a long-latency operation, hits a barrier,
// or completes. The RFC, if present, flushes the warp's entries.
func (sc *schedState) demote(sm *sm, slot int) {
	for i, s := range sc.active {
		if s == slot {
			sc.active = append(sc.active[:i], sc.active[i+1:]...)
			sc.pending = append(sc.pending, slot)
			if sm.rfcCache != nil {
				sm.flushBuf = sm.rfcCache.FlushWarp(slot, sm.flushBuf[:0])
				for _, r := range sm.flushBuf {
					sm.enqueueBankWrite(slot, r, doneNone)
				}
			}
			sc.promote(sm)
			return
		}
	}
}

// promote refills the active pool with the first pending warp whose
// long-latency dependencies have resolved.
func (sc *schedState) promote(sm *sm) {
	poolSize := sm.tlPoolSize()
	for len(sc.active) < poolSize {
		idx := -1
		for i, slot := range sc.pending {
			w := sm.warps[slot]
			if w == nil {
				continue
			}
			if !w.done && !w.atBarrier && w.memInFlight == 0 {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		slot := sc.pending[idx]
		sc.pending = append(sc.pending[:idx], sc.pending[idx+1:]...)
		sc.active = append(sc.active, slot)
	}
}

// contains reports whether the active pool holds the slot (TL).
func (sc *schedState) inActive(slot int) bool {
	for _, s := range sc.active {
		if s == slot {
			return true
		}
	}
	return false
}
