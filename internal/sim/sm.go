package sim

import (
	"fmt"

	"pilotrf/internal/design"
	"pilotrf/internal/fault"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/isa"
	"pilotrf/internal/perfscope"
	"pilotrf/internal/profile"
	"pilotrf/internal/regfile"
	"pilotrf/internal/rfc"
)

// sm is one streaming multiprocessor.
type sm struct {
	id  int
	cfg *Config
	run *runState

	warps             []*warpCtx // indexed by slot; nil when free
	schedulers        []*schedState
	banks             []bankState
	collectors        int // units currently in use
	pendingCollectors []*collectorUnit
	freeCollectors    []*collectorUnit // dispatched units, reused by newCollector
	mem               memUnit
	// flushBuf receives the registers an RFC flush writes back; one
	// buffer serves every two-level-scheduler demote.
	flushBuf []isa.Reg

	rf       *regfile.File
	profCtl  *profile.Controller
	rfcCache *rfc.Cache
	// gate tracks register liveness for power gating (nil unless
	// Config.Gating is set). Purely observational.
	gate *design.GatingTracker

	now      int64
	events   eventHeap
	eventSeq uint64

	residentCTAs int
	liveWarps    int

	// Pilot bookkeeping (per SM, as in the paper's hardware). The pilot
	// is the first warp launched on the SM for the kernel; its finish
	// time is recorded for every technique (Table I), and the profiling
	// controller reacts only when the technique uses a pilot.
	pilotWarp    *warpCtx
	pilotFinish  int64
	ranPilot     bool
	issuedEpoch  int // issues this cycle, fed to the adaptive controller
	kernelLaunch bool
	wasLowPower  bool // previous adaptive mode, for trace transitions

	// Flight recorder sink (nil unless Config.Record is set); recEvery
	// is the checksum interval and recCycles the countdown within it.
	rec       flightrec.Sink
	recEvery  int64
	recCycles int64

	// Telemetry (nil unless Config.Stalls or Config.Metrics is set).
	tel *smTelemetry
	// Energy attribution (nil unless Config.Energy is set).
	en *smEnergy
	// Perfscope census + phase timing (nil unless Config.Perf is set).
	pf *smPerf
	// telCollectorMark holds the CollectorStalls count at the start of
	// the current cycle, so the stall classifier can tell whether an
	// otherwise-ready warp lost only the structural collector hazard.
	telCollectorMark uint64

	// Fault injection (nil unless Config.Fault is set). faults holds the
	// live injected faults on this SM; flips the one-shot read-path
	// corruptions restored right after execute. readHash/readCount
	// accumulate the commutative dataflow digest — maintained only while
	// a flight recorder is attached, since the digest exists to detect
	// silent data corruption against a recorded golden run.
	inj       *fault.Injector
	faults    []pendingFault
	flips     []appliedFlip
	readHash  uint64
	readCount uint64
}

func newSM(id int, cfg *Config, run *runState) (*sm, error) {
	rf, err := regfile.New(cfg.RF)
	if err != nil {
		return nil, err
	}
	s := &sm{
		id:    id,
		cfg:   cfg,
		run:   run,
		warps: make([]*warpCtx, cfg.WarpSlotsPerSM),
		banks: make([]bankState, cfg.RF.Banks),
		rf:    rf,
	}
	s.profCtl, err = profile.NewController(cfg.Profiling, cfg.ProfTopN, maxInt(cfg.RF.FRFRegs, cfg.ProfTopN), s.rf.Mapper())
	if err != nil {
		return nil, err
	}
	if cfg.Fault != nil {
		s.inj, err = fault.NewInjector(*cfg.Fault, cfg.RF.Design, id, rf.CAMBits())
		if err != nil {
			return nil, err
		}
	}
	if cfg.Profiling == profile.TechniqueOracle {
		s.profCtl.SetOracle(cfg.Oracle)
	}
	if cfg.RFC.EntriesPerWarp > 0 {
		rc := cfg.RFC
		if rc.Warps < cfg.WarpSlotsPerSM {
			// RFC storage is addressed by warp slot; size it to the
			// slot space (only active-pool warps ever hold entries).
			rc.Warps = cfg.WarpSlotsPerSM
		}
		if cfg.RFCCompilerHints {
			// Compiler-assisted allocation: the kernel's static top-N
			// registers (one per cache entry) are the admission set.
			rc.Hints = profile.CompilerTopN(run.kern.Prog, rc.EntriesPerWarp)
		}
		s.rfcCache = rfc.New(rc)
	}
	if cfg.Gating != nil {
		s.gate = design.NewGatingTracker(*cfg.Gating, cfg.WarpSlotsPerSM, cfg.WarpRegBudget)
	}
	if cfg.Audit != nil {
		s.profCtl.SM = id
		s.profCtl.Audit = cfg.Audit
		s.profCtl.Now = func() int64 { return s.now }
	}
	if cfg.Record != nil {
		s.rec = cfg.Record
		s.recEvery = cfg.Record.ChecksumEvery()
		if s.recEvery <= 0 {
			s.recEvery = flightrec.DefaultChecksumEvery
		}
	}
	if cfg.Stalls || cfg.Metrics != nil {
		s.tel = newSMTelemetry(cfg.Metrics, cfg.RF.Design)
	}
	if cfg.Energy != nil {
		s.en = newSMEnergy(cfg.Energy, run.enKernel, cfg.WarpSlotsPerSM)
	}
	if cfg.Perf != nil {
		s.pf = newSMPerf(cfg.Perf)
	}
	perSched := cfg.WarpSlotsPerSM / cfg.Schedulers
	for i := 0; i < cfg.Schedulers; i++ {
		slots := make([]int, 0, perSched)
		for slot := i; slot < cfg.WarpSlotsPerSM; slot += cfg.Schedulers {
			slots = append(slots, slot)
		}
		s.schedulers = append(s.schedulers, newSchedState(i, slots, cfg.Policy, s.tlPoolSize()))
	}
	return s, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// tlPoolSize is the per-scheduler active pool of the two-level scheduler.
func (s *sm) tlPoolSize() int {
	n := s.cfg.TLActiveWarps / s.cfg.Schedulers
	if n < 1 {
		n = 1
	}
	return n
}

// ctaCapacity returns how many CTAs of the current kernel fit on the SM
// simultaneously (warp slots, register budget, CTA cap).
func (s *sm) ctaCapacity() int {
	k := s.run.kern
	warpsPer := k.WarpsPerCTA()
	bySlots := s.cfg.WarpSlotsPerSM / warpsPer
	byRegs := s.cfg.WarpRegBudget / (warpsPer * k.Prog.NumRegs)
	n := s.cfg.MaxCTAsPerSM
	if bySlots < n {
		n = bySlots
	}
	if byRegs < n {
		n = byRegs
	}
	return n
}

// freeWarpSlots counts unoccupied warp slots.
func (s *sm) freeWarpSlots() int {
	n := 0
	for _, w := range s.warps {
		if w == nil {
			n++
		}
	}
	return n
}

// launchCTA places a CTA's warps into free slots. When the first CTA of
// a kernel lands on the SM, the configured warp of that CTA becomes the
// pilot (the first warp by default).
func (s *sm) launchCTA(ctaID int) {
	k := s.run.kern
	warpsPer := k.WarpsPerCTA()
	cta := &ctaCtx{id: ctaID, live: warpsPer}
	for i := 0; i < warpsPer; i++ {
		slot := s.takeSlot()
		threads := fullMask
		remaining := k.ThreadsPerCTA - i*32
		if remaining < 32 {
			threads = (1 << uint(remaining)) - 1
		}
		w := newWarpCtx(slot, s.run.nextWarpID(), cta, i, k.Prog, threads)
		cta.warps = append(cta.warps, w)
		s.warps[slot] = w
		s.liveWarps++
		if s.cfg.CollectPerWarpCTAs > 0 && ctaID < s.cfg.CollectPerWarpCTAs*s.cfg.NumSMs {
			s.run.registerWarpHist(w.globalID, k.Prog.NumRegs)
		}
	}
	if !s.kernelLaunch {
		// First CTA on this SM for this kernel: pick the pilot warp
		// and arm profiling.
		s.kernelLaunch = true
		pilot := cta.warps[s.cfg.PilotWarpIndex%len(cta.warps)]
		s.profCtl.KernelLaunch(k.Prog, pilot.slot)
		s.pilotWarp = pilot
		if s.rec != nil {
			s.record(flightrec.KindSwapInstall, pilot.slot, -1, s.mappingHash(), 0, "kernel-launch")
		}
	}
	s.residentCTAs++
	if s.cfg.Tracer != nil {
		s.trace(TraceCTALaunch, -1, -1, "cta %d (%d warps)", ctaID, warpsPer)
	}
	if s.rec != nil {
		s.record(flightrec.KindCTALaunch, -1, -1, uint64(ctaID), uint64(warpsPer), "")
	}
	if s.cfg.Policy == PolicyTL {
		// Newly launched warps may land in slots currently on the
		// pending lists; give the active pools a chance to refill.
		for _, sc := range s.schedulers {
			sc.promote(s)
		}
	}
}

func (s *sm) takeSlot() int {
	for i, w := range s.warps {
		if w == nil {
			return i
		}
	}
	panic("sim: launchCTA without a free slot")
}

// busy reports whether the SM still has resident work or in-flight events.
func (s *sm) busy() bool {
	return s.liveWarps > 0 || len(s.events) > 0
}

// tick advances the SM by one cycle. The perfscope hooks (s.pf) are
// purely observational: phase laps read the monotonic clock between
// stages and the end-of-tick census classifies the cycle; disabled,
// each hook is one nil check.
func (s *sm) tick() {
	pf := s.pf
	var t0 int64
	if pf != nil {
		t0 = pf.begin()
	}
	s.runEvents()
	if pf != nil {
		t0 = pf.lap(perfscope.PhaseEvents, t0)
	}
	if s.inj != nil {
		s.faultTick()
		if pf != nil {
			t0 = pf.lap(perfscope.PhaseFault, t0)
		}
	}
	s.issuedEpoch = 0
	if s.tel != nil {
		s.telCollectorMark = s.run.stats.CollectorStalls
	}
	for _, sc := range s.schedulers {
		s.scheduleIssue(sc)
	}
	if pf != nil {
		t0 = pf.lap(perfscope.PhaseIssue, t0)
	}
	s.tickCollectors()
	if pf != nil {
		t0 = pf.lap(perfscope.PhaseCollect, t0)
	}
	s.tickBanks()
	if pf != nil {
		t0 = pf.lap(perfscope.PhaseBanks, t0)
	}
	if a := s.rf.Adaptive(); a != nil {
		a.OnIssue(s.issuedEpoch)
		a.Tick()
		if low := a.LowPower(); low != s.wasLowPower {
			if s.cfg.Tracer != nil {
				mode := "high"
				if low {
					mode = "low"
				}
				s.trace(TraceModeSwitch, -1, -1, "FRF %s power", mode)
			}
			if s.rec != nil {
				var toLow uint64
				if low {
					toLow = 1
				}
				s.record(flightrec.KindModeFlip, -1, -1, toLow, 0, "")
			}
			s.wasLowPower = low
		}
	}
	s.run.stats.WarpInstrs += uint64(s.issuedEpoch)
	for b := range s.banks {
		s.run.stats.BankQueueSum += uint64(len(s.banks[b].queue))
	}
	if pf != nil {
		t0 = pf.lap(perfscope.PhaseAdaptive, t0)
	}
	if s.tel != nil {
		s.observeCycle()
	}
	if pf != nil {
		t0 = pf.lap(perfscope.PhaseTelemetry, t0)
	}
	if s.en != nil {
		s.energyCycle()
	}
	if s.gate != nil {
		s.gate.Tick()
	}
	if pf != nil {
		t0 = pf.lap(perfscope.PhaseEnergy, t0)
	}
	s.recordTick()
	if pf != nil {
		pf.lap(perfscope.PhaseRecord, t0)
		s.censusCycle()
	}
	s.now++
}

// scheduleIssue lets one scheduler issue up to its dual-issue width.
func (s *sm) scheduleIssue(sc *schedState) {
	for n := 0; n < s.cfg.IssuePerScheduler; n++ {
		slot := sc.pickWarp(s, s.canIssue)
		if slot < 0 {
			return
		}
		s.issue(sc, s.warps[slot])
	}
}

// canIssue is the side-effect-free issue check: residency, barriers,
// branch shadow, scoreboard, and structural (collector) hazards.
func (s *sm) canIssue(slot int) bool {
	w := s.warps[slot]
	if w == nil || w.done || w.atBarrier || w.blockedUntil > s.now || w.finished() {
		return false
	}
	in := s.run.kern.Prog.At(w.pc())
	// Guard predicate must be available.
	if in.Guard.Pred.Valid() && w.pendingPreds&(1<<uint(in.Guard.Pred)) != 0 {
		return false
	}
	if in.SrcPred.Valid() && w.pendingPreds&(1<<uint(in.SrcPred)) != 0 {
		return false
	}
	if in.PDst.Valid() && w.pendingPreds&(1<<uint(in.PDst)) != 0 {
		return false
	}
	// RAW/WAW on general registers.
	for _, r := range [3]isa.Reg{in.SrcA, in.SrcB, in.SrcC} {
		if r.Valid() && w.pendingRegs&(1<<uint(r)) != 0 {
			return false
		}
	}
	if d, ok := in.DstReg(); ok && w.pendingRegs&(1<<uint(d)) != 0 {
		return false
	}
	// Non-control instructions need a collector unit.
	if in.Op.ClassOf() != isa.ClassCtrl && s.collectors >= s.cfg.OperandCollectors {
		s.run.stats.CollectorStalls++
		return false
	}
	return true
}

// issue consumes one issue slot for warp w's next instruction: functional
// execution happens now; collectors, banks, and execution latencies model
// the timing.
func (s *sm) issue(sc *schedState, w *warpCtx) {
	in := s.run.kern.Prog.At(w.pc())
	activeMask := w.activeMask()
	s.issuedEpoch++
	w.lastIssue = s.now
	s.run.stats.ThreadInstrs += uint64(popcount(activeMask))
	if s.cfg.Tracer != nil {
		s.trace(TraceIssue, w.slot, w.pc(), "%s [lanes %d]", in.String(), popcount(activeMask))
	}
	if s.rec != nil {
		s.record(flightrec.KindIssue, w.slot, w.pc(), uint64(in.Op), uint64(activeMask), in.Op.String())
	}

	if in.Op.ClassOf() == isa.ClassCtrl {
		s.issueControl(sc, w, in, activeMask)
		return
	}

	execMask := activeMask & w.predMask(in.Guard)
	if execMask == 0 {
		// Fully predicated off: squashed at issue, no RF access.
		w.advance()
		s.afterAdvance(sc, w)
		return
	}

	// Fault adjudication on the operand rows about to be read. A parity
	// detection squashes the issue: the warp re-issues the instruction
	// after the retry penalty (or the kernel aborts on retry exhaustion).
	if s.inj != nil && len(s.faults) > 0 && s.faultPreExec(w, in, execMask) {
		return
	}

	// Register access accounting happens at scheduling time — this is
	// where the paper's pilot counters hook in.
	s.countAccesses(w, in)
	if s.gate != nil {
		if d, ok := in.DstReg(); ok {
			s.gate.OnWrite(w.slot, d)
		}
	}

	// The dataflow digest folds the operand values actually consumed —
	// before execute, so a dst that doubles as a src hashes its input.
	if s.rec != nil {
		s.foldReadDigest(w, in, execMask)
	}

	// Functional execution.
	s.execute(w, in, execMask)

	if s.inj != nil && (len(s.flips) > 0 || len(s.faults) > 0) {
		s.faultPostExec(w, in, execMask)
	}

	// Scoreboard.
	if d, ok := in.DstReg(); ok {
		w.pendingRegs |= 1 << uint(d)
	}
	if in.PDst.Valid() {
		w.pendingPreds |= 1 << uint(in.PDst)
	}
	w.inFlight++

	// Operand collection: reads via the RFC (if enabled) or the banks.
	col := s.newCollector(w, in, execMask)
	if s.rfcCache != nil {
		// The RFC read stage takes a cycle of its own; hits are
		// cheap in energy, not free in time.
		col.readyAt = s.now + 1
	}
	s.collectors++
	var srcs [3]isa.Reg
	reads := in.SrcRegs(srcs[:0])
	for _, r := range reads {
		if s.rfcCache != nil {
			s.readViaRFC(col, r)
		} else {
			col.pendingReads++
			s.enqueueBankRead(col, r)
		}
	}
	s.pendingCollectors = append(s.pendingCollectors, col)

	w.advance()
	if in.Op.IsGlobalMemory() {
		w.memInFlight++
		if s.cfg.Policy == PolicyTL {
			sc.demote(s, w.slot)
		}
	}
	s.afterAdvance(sc, w)
}

// readViaRFC performs the RFC tag check for a source read; hits are
// satisfied immediately (the RFC reads in the issue cycle), misses fall
// through to an MRF bank access.
func (s *sm) readViaRFC(col *collectorUnit, r isa.Reg) {
	if s.rfcCache.Read(col.warp.slot, r) {
		return // hit: operand available without a bank transaction
	}
	col.pendingReads++
	s.enqueueBankRead(col, r)
}

// issueControl handles BRA/EXIT/BAR/NOP, which bypass the collectors.
func (s *sm) issueControl(sc *schedState, w *warpCtx, in *isa.Instruction, activeMask uint32) {
	switch in.Op {
	case isa.OpBRA:
		taken := activeMask & w.predMask(in.Guard)
		w.branch(taken, in.Target, in.Reconv)
		w.blockedUntil = s.now + int64(s.cfg.BranchLatency)
	case isa.OpEXIT:
		exitMask := activeMask & w.predMask(in.Guard)
		wholePath := exitMask == activeMask
		w.exitLanes(exitMask)
		// Only survivors of the *current* path advance past the EXIT.
		// If the whole path exited, its entry was popped and the
		// reconvergence entry below must not be disturbed.
		if !wholePath && !w.finished() {
			w.advance()
		}
	case isa.OpBAR:
		w.advance()
		w.atBarrier = true
		w.cta.arrived++
		if s.cfg.Tracer != nil {
			s.trace(TraceBarrier, w.slot, -1, "arrived (%d/%d)", w.cta.arrived, w.cta.live)
		}
		s.checkBarrier(w.cta)
		if s.cfg.Policy == PolicyTL {
			sc.demote(s, w.slot)
		}
	case isa.OpNOP:
		w.advance()
	default:
		panic(fmt.Sprintf("sim: control op %v", in.Op))
	}
	s.afterAdvance(sc, w)
}

// afterAdvance retires the warp if its stack emptied and all in-flight
// instructions have drained.
func (s *sm) afterAdvance(sc *schedState, w *warpCtx) {
	if w.finished() && !w.done && w.inFlight == 0 {
		s.retireWarp(w)
	}
}

// retireWarp marks a warp complete and handles pilot/CTA bookkeeping.
func (s *sm) retireWarp(w *warpCtx) {
	w.done = true
	w.finishCycle = s.now
	s.liveWarps--
	if s.gate != nil {
		s.gate.OnWarpRetire(w.slot)
	}
	if s.cfg.Tracer != nil {
		s.trace(TraceWarpRetire, w.slot, -1, "cta %d", w.cta.id)
	}
	if s.rec != nil {
		s.record(flightrec.KindWarpRetire, w.slot, -1, uint64(w.cta.id), 0, "")
	}
	if w == s.pilotWarp && !s.ranPilot {
		s.profCtl.OnWarpComplete(w.slot)
		s.pilotFinish = s.now
		s.ranPilot = true
		if s.cfg.Tracer != nil {
			s.trace(TracePilotDone, w.slot, -1, "pilot finished; mapping updated")
		}
		if s.rec != nil {
			s.record(flightrec.KindSwapInstall, w.slot, -1, s.mappingHash(), 0, "pilot-complete")
		}
	}
	cta := w.cta
	cta.live--
	s.checkBarrier(cta)
	if cta.live == 0 {
		s.finishCTA(cta)
	}
	if s.cfg.Policy == PolicyTL {
		sc := s.schedulers[w.slot%s.cfg.Schedulers]
		if sc.inActive(w.slot) {
			sc.demote(s, w.slot)
		}
	}
}

// checkBarrier releases a CTA barrier when every live warp has arrived.
func (s *sm) checkBarrier(cta *ctaCtx) {
	waiting := 0
	for _, w := range cta.warps {
		if w.atBarrier {
			waiting++
		}
	}
	if waiting == 0 || waiting < cta.live {
		return
	}
	released := 0
	for _, w := range cta.warps {
		if w.atBarrier {
			w.atBarrier = false
			cta.arrived--
			released++
			if s.cfg.Policy == PolicyTL {
				sc := s.schedulers[w.slot%s.cfg.Schedulers]
				sc.promote(s)
			}
		}
	}
	if s.rec != nil && released > 0 {
		s.record(flightrec.KindBarrierRelease, -1, -1, uint64(cta.id), uint64(released), "")
	}
}

// finishCTA frees the CTA's slots and pulls the next CTA from the grid.
func (s *sm) finishCTA(cta *ctaCtx) {
	for _, w := range cta.warps {
		s.warps[w.slot] = nil
	}
	s.residentCTAs--
	s.run.ctaDone(s)
}

// countAccesses records the warp-level RF operand accesses of an issued
// instruction: global statistics, the Figure 2 histogram, the per-warp
// similarity histograms, and the pilot counters.
func (s *sm) countAccesses(w *warpCtx, in *isa.Instruction) {
	var srcs [3]isa.Reg
	for _, r := range in.SrcRegs(srcs[:0]) {
		s.run.stats.RegReads++
		s.run.countRegAccess(w.globalID, r)
		s.profCtl.OnRegAccess(w.slot, r)
	}
	if d, ok := in.DstReg(); ok {
		s.run.stats.RegWrites++
		s.run.countRegAccess(w.globalID, d)
		s.profCtl.OnRegAccess(w.slot, d)
	}
}

// countPartAccess attributes one serviced bank transaction to a physical
// partition — and, when the energy ledger is attached, to the issuing
// warp slot and architectural register. The statistics counter and the
// ledger buckets increment in lockstep here, which is what makes the
// ledger's conservation against KernelStats.PartAccesses exact.
func (s *sm) countPartAccess(p regfile.Partition, warp int, arch isa.Reg) {
	s.run.stats.PartAccesses[p]++
	if s.rec != nil {
		s.record(flightrec.KindRoute, warp, -1, uint64(p), uint64(arch), "")
	}
	if s.tel != nil {
		s.tel.cur.parts[p]++
	}
	if s.en != nil {
		s.en.parts[p]++
		s.en.heat[warp*isa.MaxRegs+int(arch)][p]++
		if s.en.protMask[p] {
			// A protected partition reads/writes its check bits with
			// every access; the ledger prices them at flush time.
			s.en.overhead[p]++
		}
	}
}

// tickCollectors dispatches instructions whose operands are all gathered:
// the collector is freed and the instruction enters its execution pipe.
func (s *sm) tickCollectors() {
	kept := s.pendingCollectors[:0]
	for _, col := range s.pendingCollectors {
		if col.pendingReads > 0 || col.readyAt > s.now {
			kept = append(kept, col)
			continue
		}
		s.collectors--
		if s.pf != nil {
			s.pf.dispatched++
		}
		s.dispatch(col)
		s.freeCollectors = append(s.freeCollectors, col)
	}
	s.pendingCollectors = kept
}

// dispatch models the execution stage of a collected instruction and its
// writeback.
func (s *sm) dispatch(col *collectorUnit) {
	w, in := col.warp, col.in
	if s.cfg.Tracer != nil {
		s.trace(TraceDispatch, w.slot, -1, "%s to %s", in.Op, in.Op.ClassOf())
	}
	switch {
	case in.Op.IsGlobalMemory():
		if s.cfg.Tracer != nil {
			s.trace(TraceMemStart, w.slot, -1, "%s", in.Op)
		}
		s.memDispatch(w, in)
	case in.Op == isa.OpLDS || in.Op == isa.OpSTS:
		s.schedule(s.now+int64(s.cfg.SharedLatency), event{kind: evWriteback, w: w, in: in})
	default:
		s.schedule(s.now+int64(s.unitLatency(in)), event{kind: evWriteback, w: w, in: in})
	}
}

func (s *sm) unitLatency(in *isa.Instruction) int {
	switch in.Op.ClassOf() {
	case isa.ClassSFU:
		return s.cfg.SFULatency
	case isa.ClassFPU:
		return s.cfg.FPULatency
	default:
		return s.cfg.ALULatency
	}
}

// writeback retires an instruction: predicate results complete here;
// register results go through an RFC write or a bank write transaction.
func (s *sm) writeback(w *warpCtx, in *isa.Instruction) {
	if s.cfg.Tracer != nil {
		s.trace(TraceWriteback, w.slot, -1, "%s", in.Op)
	}
	if in.PDst.Valid() {
		w.pendingPreds &^= 1 << uint(in.PDst)
	}
	d, hasDst := in.DstReg()
	if !hasDst {
		s.completeInstr(w)
		return
	}
	if s.rfcCache != nil {
		// Only active-pool warps own RFC storage; a demoted warp's
		// late results bypass the cache straight to the MRF.
		if s.cfg.Policy == PolicyTL && !s.schedulers[w.slot%s.cfg.Schedulers].inActive(w.slot) {
			s.enqueueBankWrite(w, d, doneRelease)
			return
		}
		// Results write into the RFC; dirty evictions emit MRF bank
		// writes that retire in the background.
		if victim, wb := s.rfcCache.Write(w.slot, d); wb {
			s.enqueueBankWrite(w, victim, doneNone)
		}
		w.pendingRegs &^= 1 << uint(d)
		s.completeInstr(w)
		return
	}
	if s.cfg.WritebackForwarding {
		// The result is forwarded to dependents now; the bank write
		// retires in the background (energy + occupancy only).
		w.pendingRegs &^= 1 << uint(d)
		s.enqueueBankWrite(w, d, doneComplete)
		return
	}
	s.enqueueBankWrite(w, d, doneRelease)
}

func (s *sm) completeInstr(w *warpCtx) {
	w.inFlight--
	if w.finished() && !w.done && w.inFlight == 0 {
		s.retireWarp(w)
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
