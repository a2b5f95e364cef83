package sim

// schedState is one of the SM's warp schedulers. Warps are statically
// partitioned among schedulers by slot (slot % numSchedulers).
type schedState struct {
	id    int
	slots []int // warp slots owned by this scheduler

	// rrPtr is the round-robin rotation pointer (LRR, and TL's active
	// pool rotation).
	rrPtr int
	// greedy is the last warp GTO issued from (-1 when none).
	greedy int
	// fgPtr is the current fetch group (PolicyFetchGroup).
	fgPtr int

	// Two-level scheduler state: indices into slots.
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

// pickWarp returns the next warp slot to attempt issue from, or -1. The
// canIssue callback must be side-effect free; the scheduler probes
// candidates with it.
func (sc *schedState) pickWarp(sm *sm, canIssue func(slot int) bool) int {
	switch sm.cfg.Policy {
	case PolicyLRR:
		return sc.pickLRR(canIssue)
	case PolicyGTO:
		return sc.pickGTO(sm, canIssue)
	case PolicyTL:
		return sc.pickTL(canIssue)
	case PolicyFetchGroup:
		return sc.pickFetchGroup(sm.cfg.FetchGroupWarps, canIssue)
	default:
		panic("sim: unknown scheduler policy")
	}
}

func (sc *schedState) pickLRR(canIssue func(int) bool) int {
	n := len(sc.slots)
	for i := 0; i < n; i++ {
		slot := sc.slots[(sc.rrPtr+i)%n]
		if canIssue(slot) {
			sc.rrPtr = (sc.rrPtr + i + 1) % n
			return slot
		}
	}
	return -1
}

// pickGTO keeps issuing from the greedy warp; when it stalls, it selects
// the oldest ready warp (lowest global id, i.e. earliest launched).
func (sc *schedState) pickGTO(sm *sm, canIssue func(int) bool) int {
	if sc.greedy >= 0 && canIssue(sc.greedy) {
		return sc.greedy
	}
	best, bestAge := -1, int(^uint(0)>>1)
	for _, slot := range sc.slots {
		w := sm.warps[slot]
		if w == nil || !canIssue(slot) {
			continue
		}
		if w.globalID < bestAge {
			best, bestAge = slot, w.globalID
		}
	}
	sc.greedy = best
	return best
}

// pickTL round-robins within the active pool only.
func (sc *schedState) pickTL(canIssue func(int) bool) int {
	n := len(sc.active)
	for i := 0; i < n; i++ {
		slot := sc.active[(sc.rrPtr+i)%n]
		if canIssue(slot) {
			sc.rrPtr = (sc.rrPtr + i + 1) % n
			return slot
		}
	}
	return -1
}

// pickFetchGroup scans the current fetch group round-robin; only when it
// has nothing ready does the scheduler advance to the next group, so
// groups hit their long-latency operations at staggered times.
func (sc *schedState) pickFetchGroup(groupSize int, canIssue func(int) bool) int {
	n := len(sc.slots)
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
		for i := 0; i < hi-lo; i++ {
			slot := sc.slots[lo+(sc.rrPtr+i)%(hi-lo)]
			if canIssue(slot) {
				sc.rrPtr = (sc.rrPtr + i + 1) % (hi - lo)
				sc.fgPtr = gi
				return slot
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
				w := sm.warps[slot]
				sm.flushBuf = sm.rfcCache.FlushWarp(slot, sm.flushBuf[:0])
				for _, r := range sm.flushBuf {
					sm.enqueueBankWrite(w, r, doneNone)
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
