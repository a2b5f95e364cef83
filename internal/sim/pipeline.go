package sim

import (
	"math/bits"

	"pilotrf/internal/isa"
)

// eventKind selects the handler runEvents dispatches a fired event to.
type eventKind uint8

const (
	evBankDone  eventKind = iota // a bank transaction completes: req
	evWriteback                  // an execution pipe finishes: w, in
	evMemDone                    // a global-memory transaction returns: w, in
)

// event is one scheduled occurrence in the SM's timing model: a kind and
// the payload its handler reads. It is plain data, so scheduling one
// allocates nothing once the queue's pool has grown to the SM's peak
// number of events in flight.
type event struct {
	kind eventKind
	next int32 // pool index of the next event in its slot or the free list; -1 ends it
	w    *warpCtx
	in   *isa.Instruction
	req  bankReq
}

// eventSlot is the FIFO of the events due in one cycle, linked through
// the queue's pool.
type eventSlot struct {
	head, tail int32 // pool indices; -1 when the slot is empty
}

// eventQueue holds an SM's scheduled events in a ring of per-cycle
// slots. Every delay lies between 1 and the ring length minus one, and
// the SM ticks every cycle while events are pending, so a slot only
// ever holds one cycle's events, in the order they were scheduled.
type eventQueue struct {
	slots []eventSlot
	mask  int64 // len(slots) - 1
	// pool stores the events of every slot. It grows to the peak number
	// of events in flight; fired events' entries go on the free list.
	pool []event
	free int32 // head of the free list; -1 when empty
	n    int   // events pending
}

// newEventQueue returns a queue whose ring is the smallest power of two
// longer than maxDelay, the longest delay it will be asked to schedule.
func newEventQueue(maxDelay int) eventQueue {
	slots := make([]eventSlot, 1<<bits.Len(uint(maxDelay)))
	for i := range slots {
		slots[i] = eventSlot{head: -1, tail: -1}
	}
	return eventQueue{slots: slots, mask: int64(len(slots) - 1), free: -1}
}

// push schedules e to fire delay cycles after now, at the tail of that
// cycle's slot.
func (q *eventQueue) push(now int64, delay int, e event) {
	e.next = -1
	i := q.free
	if i >= 0 {
		q.free = q.pool[i].next
		q.pool[i] = e
	} else {
		i = int32(len(q.pool))
		q.pool = append(q.pool, e)
	}
	sl := &q.slots[(now+int64(delay))&q.mask]
	if sl.tail < 0 {
		sl.head = i
	} else {
		q.pool[sl.tail].next = i
	}
	sl.tail = i
	q.n++
}

// popDue removes and returns the next event due at now.
func (q *eventQueue) popDue(now int64) (event, bool) {
	sl := &q.slots[now&q.mask]
	i := sl.head
	if i < 0 {
		return event{}, false
	}
	e := q.pool[i]
	sl.head = e.next
	if sl.head < 0 {
		sl.tail = -1
	}
	q.pool[i].next = q.free
	q.free = i
	q.n--
	return e, true
}

// writeDone is what a bank write does when it retires, besides the bank
// occupancy and energy every access costs.
type writeDone uint8

const (
	doneNone     writeDone = iota // background write: an RFC eviction or flush
	doneComplete                  // the instruction completes; its result was forwarded
	doneRelease                   // the destination's scoreboard bit clears, then the instruction completes
)

// bankReq is one register file bank transaction. It names its warp by
// slot: a background write may outlive the warp's retirement, while a
// write that releases or completes an instruction keeps the warp's
// inFlight above zero, so its slot still holds the issuing warp.
type bankReq struct {
	slot    int
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
	queue []bankReq
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

// tickBanks advances every bank with a request queued, in ascending bank
// order: each bank accepts one request per cycle (the arrays are
// pipelined, so a slow NTV partition costs access LATENCY on dependency
// chains, not bank throughput — the premise behind the paper's 7.1% NTV
// slowdown); the requested data becomes available after the partition's
// access latency.
func (s *sm) tickBanks() {
	for m := s.busyBanks; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		bank := &s.banks[b]
		req := bank.queue[0]
		copy(bank.queue, bank.queue[1:])
		bank.queue = bank.queue[:len(bank.queue)-1]
		if len(bank.queue) == 0 {
			s.busyBanks &^= 1 << uint(b)
		}
		s.queued--

		part, lat := s.rf.Route(req.phys)
		if s.pf != nil {
			s.pf.bankOps++
		}
		s.countPartAccess(part, req.slot, req.arch)
		if s.cfg.Tracer != nil {
			s.trace(TraceBankAccess, req.slot, -1, s.run.bankDetail(b, req.isWrite, req.arch, part, lat))
		}
		s.schedule(lat, event{kind: evBankDone, req: req})
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
		w := s.warps[req.slot]
		w.pendingRegs &^= 1 << uint(req.arch)
		s.unpark(w)
		s.completeInstr(w)
	case doneComplete:
		s.completeInstr(s.warps[req.slot])
	}
}

// enqueueBankRead queues a source-operand read for a collector.
func (s *sm) enqueueBankRead(col *collectorUnit, arch isa.Reg) {
	phys := s.rf.PhysicalReg(arch)
	s.enqueueBank(bankReq{slot: col.warp.slot, arch: arch, phys: phys, col: col})
}

// enqueueBankWrite queues a destination write for the warp in slot;
// done says what its retirement does (scoreboard release, instruction
// completion).
func (s *sm) enqueueBankWrite(slot int, arch isa.Reg, done writeDone) {
	phys := s.rf.PhysicalReg(arch)
	s.enqueueBank(bankReq{slot: slot, arch: arch, phys: phys, isWrite: true, done: done})
}

// enqueueBank appends req to the queue of the bank its warp slot and
// physical register map to.
func (s *sm) enqueueBank(req bankReq) {
	b := s.rf.BankOf(req.slot, req.phys)
	s.banks[b].queue = append(s.banks[b].queue, req)
	s.busyBanks |= 1 << uint(b)
	s.queued++
}

// schedule queues e to fire delay cycles from now.
func (s *sm) schedule(delay int, e event) {
	s.events.push(s.now, delay, e)
}

// runEvents fires all events due at the current cycle.
func (s *sm) runEvents() {
	for {
		e, ok := s.events.popDue(s.now)
		if !ok {
			return
		}
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
	s.schedule(s.cfg.MemLatency, event{kind: evMemDone, w: w, in: in})
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
