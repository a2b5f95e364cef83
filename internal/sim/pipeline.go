package sim

import "pilotrf/internal/isa"

// eventKind selects the handler runEvents dispatches a fired event to.
type eventKind uint8

const (
	evBankDone  eventKind = iota // a bank transaction completes: req
	evWriteback                  // an execution pipe finishes: w, in
	evMemDone                    // a global-memory transaction returns: w, in
)

// event is one scheduled occurrence in the SM's timing model: a kind and
// the payload its handler reads. It is plain data, so scheduling one
// allocates nothing once the heap has grown to the SM's peak number of
// events in flight.
type event struct {
	cycle int64
	seq   uint64 // tie-break for deterministic ordering
	kind  eventKind
	w     *warpCtx
	in    *isa.Instruction
	req   bankReq
}

// before orders events by cycle, then by scheduling order. The pair is
// unique, so it alone fixes the order in which events fire.
func (e *event) before(o *event) bool {
	if e.cycle != o.cycle {
		return e.cycle < o.cycle
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events ordered by before.
type eventHeap []event

// push adds e, moving it up past every parent it fires before.
func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	*h = q
}

// pop removes and returns the earliest event of a non-empty heap.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(&q[c]) {
				c++
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// writeDone is what a bank write does when it retires, besides the bank
// occupancy and energy every access costs.
type writeDone uint8

const (
	doneNone     writeDone = iota // background write: an RFC eviction or flush
	doneComplete                  // the instruction completes; its result was forwarded
	doneRelease                   // the destination's scoreboard bit clears, then the instruction completes
)

// bankReq is one register file bank transaction.
type bankReq struct {
	warp    *warpCtx
	arch    isa.Reg // architected register (for routing stats)
	phys    isa.Reg // physical register (fixes the bank)
	isWrite bool
	done    writeDone      // what a write does when it retires
	col     *collectorUnit // collector awaiting this read; nil for writes
}

// bankState is one RF bank: a FIFO of requests served one at a time; the
// service latency depends on the partition (FRF/SRF/MRF) and, for the
// FRF, on the adaptive power mode at service time.
type bankState struct {
	queue     []bankReq
	busyUntil int64
}

// collectorUnit buffers one issued instruction while its source operands
// are gathered from the banks (or the RFC).
type collectorUnit struct {
	warp         *warpCtx
	in           *isa.Instruction
	execMask     uint32
	pendingReads int
	// readyAt delays dispatch until the given cycle even when no bank
	// reads are pending — the RFC's own read stage.
	readyAt int64
}

// newCollector returns a cleared collector unit for an issuing
// instruction, reusing one that dispatch freed when there is one; at
// most OperandCollectors units are ever allocated.
func (s *sm) newCollector(w *warpCtx, in *isa.Instruction, execMask uint32) *collectorUnit {
	var col *collectorUnit
	if n := len(s.freeCollectors); n > 0 {
		col = s.freeCollectors[n-1]
		s.freeCollectors = s.freeCollectors[:n-1]
	} else {
		col = new(collectorUnit)
	}
	*col = collectorUnit{warp: w, in: in, execMask: execMask}
	return col
}

// memReq is one global-memory transaction: the warp and its instruction.
type memReq struct {
	w  *warpCtx
	in *isa.Instruction
}

// memUnit is the SM's global-memory interface: fixed latency with a
// bounded number of in-flight transactions.
type memUnit struct {
	inflight int
	waiting  []memReq // transactions waiting for a slot, oldest first
}

// tickBanks advances every bank: each bank accepts one request per cycle
// (the arrays are pipelined, so a slow NTV partition costs access LATENCY
// on dependency chains, not bank throughput — the premise behind the
// paper's 7.1% NTV slowdown); the requested data becomes available after
// the partition's access latency.
func (s *sm) tickBanks() {
	for b := range s.banks {
		bank := &s.banks[b]
		if bank.busyUntil > s.now || len(bank.queue) == 0 {
			continue
		}
		req := bank.queue[0]
		copy(bank.queue, bank.queue[1:])
		bank.queue = bank.queue[:len(bank.queue)-1]

		part, lat := s.rf.Route(req.phys)
		if s.pf != nil {
			s.pf.bankOps++
		}
		s.countPartAccess(part, req.warp.slot, req.arch)
		if s.cfg.Tracer != nil {
			s.trace(TraceBankAccess, req.warp.slot, -1, s.bankDetail(b, req.isWrite, req.arch, part, lat))
		}
		bank.busyUntil = s.now + 1
		s.schedule(s.now+int64(lat), event{kind: evBankDone, req: req})
	}
}

func (s *sm) completeBankReq(req bankReq) {
	if req.col != nil {
		req.col.pendingReads--
		// Dispatch happens in the collector sweep, keeping ordering
		// deterministic.
		return
	}
	switch req.done {
	case doneRelease:
		req.warp.pendingRegs &^= 1 << uint(req.arch)
		s.completeInstr(req.warp)
	case doneComplete:
		s.completeInstr(req.warp)
	}
}

// enqueueBankRead queues a source-operand read for a collector.
func (s *sm) enqueueBankRead(col *collectorUnit, arch isa.Reg) {
	phys := s.rf.PhysicalReg(arch)
	b := s.rf.BankOf(col.warp.slot, phys)
	s.banks[b].queue = append(s.banks[b].queue, bankReq{
		warp: col.warp, arch: arch, phys: phys, col: col,
	})
}

// enqueueBankWrite queues a destination write; done says what its
// retirement does (scoreboard release, instruction completion).
func (s *sm) enqueueBankWrite(w *warpCtx, arch isa.Reg, done writeDone) {
	phys := s.rf.PhysicalReg(arch)
	b := s.rf.BankOf(w.slot, phys)
	s.banks[b].queue = append(s.banks[b].queue, bankReq{
		warp: w, arch: arch, phys: phys, isWrite: true, done: done,
	})
}

// schedule queues e to fire at the given cycle (>= now).
func (s *sm) schedule(cycle int64, e event) {
	s.eventSeq++
	e.cycle, e.seq = cycle, s.eventSeq
	s.events.push(e)
}

// runEvents fires all events due at the current cycle.
func (s *sm) runEvents() {
	for len(s.events) > 0 && s.events[0].cycle <= s.now {
		e := s.events.pop()
		if s.pf != nil {
			s.pf.fired++
		}
		switch e.kind {
		case evBankDone:
			s.completeBankReq(e.req)
		case evWriteback:
			s.writeback(e.w, e.in)
		case evMemDone:
			s.memDone(e.w, e.in)
		}
	}
}

// memDispatch issues warp w's global-memory instruction in; it returns
// (memDone) after the memory latency. Excess transactions wait for a
// free slot.
func (s *sm) memDispatch(w *warpCtx, in *isa.Instruction) {
	if s.mem.inflight < s.cfg.MaxMemInflight {
		s.memStart(w, in)
	} else {
		s.mem.waiting = append(s.mem.waiting, memReq{w: w, in: in})
	}
}

// memStart occupies a memory slot for one transaction.
func (s *sm) memStart(w *warpCtx, in *isa.Instruction) {
	s.mem.inflight++
	s.schedule(s.now+int64(s.cfg.MemLatency), event{kind: evMemDone, w: w, in: in})
}

// memDone retires a global-memory transaction: its slot passes to the
// oldest waiting transaction, then the instruction writes back.
func (s *sm) memDone(w *warpCtx, in *isa.Instruction) {
	s.mem.inflight--
	if len(s.mem.waiting) > 0 {
		next := s.mem.waiting[0]
		copy(s.mem.waiting, s.mem.waiting[1:])
		s.mem.waiting = s.mem.waiting[:len(s.mem.waiting)-1]
		s.memStart(next.w, next.in)
	}
	if s.cfg.Tracer != nil {
		s.trace(TraceMemDone, w.slot, -1, in.Op.String())
	}
	w.memInFlight--
	if s.cfg.Policy == PolicyTL {
		s.schedulers[w.slot%s.cfg.Schedulers].promote(s)
	}
	s.writeback(w, in)
}
