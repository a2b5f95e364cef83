package sim

import (
	"fmt"
	"math/bits"

	"pilotrf/internal/fault"
	"pilotrf/internal/isa"
	"pilotrf/internal/regfile"
)

// The SM-side half of fault injection. The fault.Injector decides *when*
// and *what kind* of fault strikes (deterministically, from the seed);
// the SM decides *where*, because only it knows which cells are
// allocated, and adjudicates every fault against the configured
// protection scheme when the corrupted row is read:
//
//	unprotected  — corrupted values are consumed silently (SDC material)
//	parity       — detection on read; recovery is a warp-level re-issue
//	               with bounded retries, then a structured kernel abort
//	SECDED       — single-bit correction on read, invisible to timing
//	               except for the check-bit energy every access pays
//
// Detection is row-granular: a warp's operand read senses the whole
// 128-byte row, so a faulty word is caught whichever lane it belongs
// to. All fault state lives behind s.inj — when Config.Fault is nil the
// hot path costs one nil check and allocates nothing.

// pendingFault is one live injected fault plus the simulator-private
// ground truth a code needs to adjudicate it: for stuck-at cells, the
// bit value the program last wrote (so "is the cell currently wrong?"
// is answerable after any sequence of overwrites).
type pendingFault struct {
	fault.CellFault
	truth uint32 // correct value of the faulted bit (0 or 1)
}

// appliedFlip is a transient read-path corruption applied to storage
// for the duration of one execute, restored immediately after.
type appliedFlip struct {
	w    *warpCtx
	reg  isa.Reg
	lane int
	bit  uint8
}

// faultTick advances the SM's fault process by one cycle and injects a
// strike when one lands. Runs once per tick, before issue, so a fault
// injected this cycle is observable by this cycle's reads.
func (s *sm) faultTick() {
	low := false
	if a := s.rf.Adaptive(); a != nil {
		low = a.LowPower()
	}
	shot, ok := s.inj.Tick(low)
	if !ok {
		return
	}
	s.inject(shot, low)
}

// inject places one accepted strike: CAM upsets hit the swapping table,
// cell upsets pick a victim among the allocated registers of the struck
// partition.
func (s *sm) inject(shot fault.Shot, lowPower bool) {
	st := s.inj.Stats()
	if shot.Target == fault.TargetCAM {
		cam := s.rf.SwapTable()
		if cam.Len() == 0 {
			st.NoVictim++
			return
		}
		st.Injected[fault.TargetCAM]++
		entry := s.inj.Intn(cam.Len())
		if s.cfg.Protect[regfile.PartFRFHigh] != fault.ProtectNone {
			// The protected mapping detects the upset and scrubs the
			// replica from a clean copy: placement semantics preserved.
			st.CAMRepaired++
			return
		}
		cam.FlipBit(entry, shot.Bit)
		st.CAMCorrupted++
		if s.cfg.Tracer != nil {
			s.trace(TraceModeSwitch, -1, -1, fmt.Sprintf("CAM upset entry %d bit %d", entry, shot.Bit))
		}
		return
	}

	// Victim selection: every allocated (warp, register) cell whose
	// physical home is the struck array, in deterministic slot order.
	frf := s.cfg.RF.FRFRegs
	numRegs := s.run.kern.Prog.NumRegs
	var victims []int // slot*isa.MaxRegs + reg
	for slot, w := range s.warps {
		if w == nil || w.done {
			continue
		}
		for r := 0; r < numRegs; r++ {
			if s.cfg.RF.Design.Partitioned() {
				inFRF := int(s.rf.PhysicalReg(isa.Reg(r))) < frf
				if inFRF != (shot.Target == fault.TargetFRF) {
					continue
				}
			}
			victims = append(victims, slot*isa.MaxRegs+r)
		}
	}
	if len(victims) == 0 {
		st.NoVictim++
		return
	}
	v := victims[s.inj.Intn(len(victims))]
	f := fault.CellFault{
		Warp:  v / isa.MaxRegs,
		Reg:   isa.Reg(v % isa.MaxRegs),
		Lane:  shot.Lane,
		Bit:   uint8(shot.Bit),
		Kind:  shot.Kind,
		Part:  shot.Target.Partition(lowPower),
		Cycle: s.now,
	}
	st.Injected[shot.Target]++
	s.applyCellFault(f)
}

// applyCellFault corrupts storage per the fault kind and records the
// pending fault. Split out so tests can aim a fault at a chosen cell.
func (s *sm) applyCellFault(f fault.CellFault) {
	w := s.warps[f.Warp]
	pf := pendingFault{CellFault: f}
	mask := uint32(1) << f.Bit
	switch f.Kind {
	case fault.KindTransient:
		w.regs[f.Reg][f.Lane] ^= mask
	case fault.KindStuckAt0:
		pf.truth = w.regs[f.Reg][f.Lane] >> f.Bit & 1
		w.regs[f.Reg][f.Lane] &^= mask
	case fault.KindStuckAt1:
		pf.truth = w.regs[f.Reg][f.Lane] >> f.Bit & 1
		w.regs[f.Reg][f.Lane] |= mask
	case fault.KindReadPath:
		// Storage intact; the corruption materializes at a read.
	}
	s.faults = append(s.faults, pf)
	if s.cfg.Tracer != nil {
		s.trace(TraceModeSwitch, f.Warp, -1, fmt.Sprintf("%s fault %s lane %d bit %d (%s)",
			f.Kind, f.Reg, f.Lane, f.Bit, f.Part))
	}
}

// pinned returns the value a stuck-at fault forces its bit to.
func pinnedBit(k fault.Kind) uint32 {
	if k == fault.KindStuckAt1 {
		return 1
	}
	return 0
}

// active reports whether the fault currently corrupts its cell: a
// stuck-at cell is only wrong while the pinned value differs from what
// the program last wrote; transients and read-path faults always are.
func (pf *pendingFault) active(w *warpCtx) bool {
	if !pf.Kind.StuckAt() {
		return true
	}
	return pf.truth != pinnedBit(pf.Kind)
}

// faultPreExec adjudicates the pending faults touching the source
// operands of an instruction about to execute. It returns true when the
// read was squashed for a warp-level re-issue (parity detection or
// retry exhaustion); the caller must then abandon the issue without
// executing or advancing. Callers hold s.inj != nil && len(s.faults)>0.
func (s *sm) faultPreExec(w *warpCtx, in *isa.Instruction, execMask uint32) bool {
	var srcs [3]isa.Reg
	reads := in.SrcRegs(srcs[:0])
	st := s.inj.Stats()

	// Detection pass: parity-protected rows squash before any state
	// changes, so a squashed issue leaves storage exactly as it was.
	for fi := range s.faults {
		pf := &s.faults[fi]
		if pf.Warp != w.slot || !readsReg(reads, pf.Reg) || !pf.active(w) {
			continue
		}
		if s.cfg.Protect[pf.Part] != fault.ProtectParity {
			continue
		}
		st.DetectedRetry++
		if pf.Kind == fault.KindReadPath {
			// The stored row is clean; the re-issued read succeeds.
			st.RetrySuccess++
			s.dropFault(fi)
			w.blockedUntil = s.now + fault.RetryPenalty
			return true
		}
		pf.Retries++
		if pf.Retries > fault.MaxRetries {
			st.Unrecoverable++
			s.run.fatal = &fault.UnrecoverableError{
				Cycle: s.now, SM: s.id, Warp: w.slot,
				Reg: pf.Reg, Part: pf.Part, Kind: pf.Kind, Retries: pf.Retries,
			}
			return true
		}
		w.blockedUntil = s.now + fault.RetryPenalty
		return true
	}

	// Consumption pass: SECDED corrects, unprotected rows feed corrupted
	// bits straight into execution.
	for fi := 0; fi < len(s.faults); fi++ {
		pf := &s.faults[fi]
		if pf.Warp != w.slot || !readsReg(reads, pf.Reg) || !pf.active(w) {
			continue
		}
		mask := uint32(1) << pf.Bit
		switch s.cfg.Protect[pf.Part] {
		case fault.ProtectSECDED:
			st.Corrected++
			switch pf.Kind {
			case fault.KindTransient:
				w.regs[pf.Reg][pf.Lane] ^= mask // heal the cell in place
				s.dropFault(fi)
				fi--
			case fault.KindReadPath:
				s.dropFault(fi) // the code fixes the flipped read bit
				fi--
			default: // stuck-at: correct the read, re-pin after execute
				w.regs[pf.Reg][pf.Lane] = w.regs[pf.Reg][pf.Lane]&^mask | pf.truth<<pf.Bit
			}
		case fault.ProtectNone:
			if execMask&(1<<uint(pf.Lane)) == 0 {
				continue // the faulty word's lane is predicated off
			}
			st.SilentReads++
			if pf.Kind == fault.KindReadPath {
				// One-shot: flip for this execute, restore right after.
				w.regs[pf.Reg][pf.Lane] ^= mask
				s.flips = append(s.flips, appliedFlip{w: w, reg: pf.Reg, lane: pf.Lane, bit: pf.Bit})
				s.dropFault(fi)
				fi--
			}
		}
	}
	return false
}

// faultPostExec restores one-shot read-path flips, re-pins stuck-at
// cells (capturing the freshly written bit as the new ground truth),
// and clears transient faults healed by a destination overwrite.
func (s *sm) faultPostExec(w *warpCtx, in *isa.Instruction, execMask uint32) {
	for _, fl := range s.flips {
		fl.w.regs[fl.reg][fl.lane] ^= 1 << fl.bit
	}
	s.flips = s.flips[:0]

	d, hasDst := in.DstReg()
	st := s.inj.Stats()
	for fi := 0; fi < len(s.faults); fi++ {
		pf := &s.faults[fi]
		if pf.Warp != w.slot {
			continue
		}
		wrote := hasDst && pf.Reg == d && execMask&(1<<uint(pf.Lane)) != 0
		if pf.Kind.StuckAt() {
			if wrote {
				pf.truth = w.regs[pf.Reg][pf.Lane] >> pf.Bit & 1
			}
			// The pin always reasserts itself over whatever was read or
			// written (idempotent when already pinned).
			mask := uint32(1) << pf.Bit
			w.regs[pf.Reg][pf.Lane] = w.regs[pf.Reg][pf.Lane]&^mask | pinnedBit(pf.Kind)<<pf.Bit
			continue
		}
		if pf.Kind == fault.KindTransient && wrote {
			// The write replaced the corrupted word before any read saw
			// it go wrong again: the fault is healed.
			st.OverwriteCleared++
			s.dropFault(fi)
			fi--
		}
	}
}

// dropFault removes fault record i in O(1); record order is not part of
// the deterministic state (adjudication scans by warp and register).
func (s *sm) dropFault(i int) {
	s.faults[i] = s.faults[len(s.faults)-1]
	s.faults = s.faults[:len(s.faults)-1]
}

// readsReg reports whether reg is among the instruction's source reads.
func readsReg(reads []isa.Reg, reg isa.Reg) bool {
	for _, r := range reads {
		if r == reg {
			return true
		}
	}
	return false
}

// foldReadDigest mixes every register value an executing instruction
// consumes into the SM's commutative dataflow digest. The contribution
// is keyed on CTA-relative identity — (CTA id, warp-in-CTA, the warp's
// executed-instruction sequence number, register, lane, value) — never
// on SM id, warp slot, or cycle, and the fold is wrapping addition. Two
// runs therefore produce equal digests exactly when their instructions
// consumed the same values, even if retry stalls shifted timing or
// moved CTAs onto different SMs. Addition is order-free, so the lanes
// are summed in a local and the SM's digest is updated once per
// instruction. Callers hold s.rec != nil.
func (s *sm) foldReadDigest(w *warpCtx, in *isa.Instruction, execMask uint32) {
	w.execSeq++
	var srcs [3]isa.Reg
	reads := in.SrcRegs(srcs[:0])
	if len(reads) == 0 {
		return
	}
	base := mix64(uint64(uint32(w.cta.id))<<32|uint64(uint32(w.inCTA))) ^ w.execSeq
	var sum uint64
	for _, r := range reads {
		key := base ^ uint64(r)<<40
		row := &w.regs[r]
		if execMask == fullMask {
			for lane, v := range row {
				sum += mix64(key ^ uint64(lane)<<32 ^ uint64(v))
			}
			continue
		}
		for m := execMask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m) & 31
			sum += mix64(key ^ uint64(lane)<<32 ^ uint64(row[lane]))
		}
	}
	s.readHash += sum
	s.readCount += uint64(len(reads) * bits.OnesCount32(execMask))
}

// mix64 is the splitmix64 finalizer: a cheap bijective mixer whose
// output sums make a good commutative digest.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
