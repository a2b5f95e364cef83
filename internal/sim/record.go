package sim

import (
	"math/bits"

	"pilotrf/internal/flightrec"
	"pilotrf/internal/isa"
)

// NewFlightRecorder returns a flight recorder whose header fingerprints
// the configuration — the fields a replay must match for the recording
// to be comparable. A non-positive checksumEvery selects the default
// interval.
func NewFlightRecorder(cfg *Config, label string, checksumEvery int64) *flightrec.Recorder {
	return flightrec.NewRecorder(flightrec.Meta{
		Label:         label,
		Seed:          cfg.Seed,
		Design:        cfg.RF.Design.String(),
		Profiling:     cfg.Profiling.String(),
		Policy:        cfg.Policy.String(),
		SMs:           cfg.NumSMs,
		ChecksumEvery: checksumEvery,
	})
}

// record emits one flight-recorder event at the SM's current cycle.
// Callers must hold s.rec != nil.
func (s *sm) record(k flightrec.Kind, warp, pc int, a, b uint64, detail string) {
	s.rec.Record(flightrec.Event{
		Cycle: s.now, SM: s.id, Kind: k,
		Warp: warp, PC: pc, A: a, B: b, Detail: detail,
	})
}

// recordTick advances the periodic-checksum countdown at the end of each
// SM cycle. The nil guard is the entire disabled-path cost.
func (s *sm) recordTick() {
	if s.rec == nil {
		return
	}
	s.recCycles++
	if s.recCycles >= s.recEvery {
		s.recordChecksum()
		s.recCycles = 0
	}
}

// recordChecksum hashes the SM's architectural state into one event:
// A = register-file contents over all resident warps, B = control state
// (SIMT stacks, predicates, scoreboards, barrier/done flags, the swap
// mapping, and the adaptive FRF power mode). Warps are visited in slot
// order, so the hash is deterministic for a deterministic run. Each
// register row's rowHash folds into A through mix64, a bijection, so a
// change confined to one row that changes its rowHash changes A; B is
// byte-wise FNV-1a.
func (s *sm) recordChecksum() {
	rf := uint64(fnvOffset)
	ctl := uint64(fnvOffset)
	for _, w := range s.warps {
		if w.vacant() {
			continue
		}
		ctl = fnvAdd(ctl, uint64(w.slot))
		for _, e := range w.stack {
			ctl = fnvAdd32(ctl, uint32(e.pc))
			ctl = fnvAdd32(ctl, uint32(e.rpc))
			ctl = fnvAdd32(ctl, e.mask)
		}
		for _, p := range w.preds {
			ctl = fnvAdd32(ctl, p)
		}
		ctl = fnvAdd(ctl, w.pendingRegs)
		ctl = fnvAdd(ctl, uint64(w.pendingPreds))
		var flags uint64
		if w.atBarrier {
			flags |= 1
		}
		if w.done {
			flags |= 2
		}
		ctl = fnvAdd(ctl, flags)
		for r := range w.regs {
			rf = mix64(rf ^ rowHash(&w.regs[r]))
		}
	}
	ctl = fnvAdd(ctl, s.mappingHash())
	if a := s.rf.Adaptive(); a != nil && a.LowPower() {
		ctl = fnvAdd(ctl, 1)
	}
	s.record(flightrec.KindChecksum, -1, -1, rf, ctl, "")
	// The cumulative dataflow digest rides along with every checksum:
	// unlike the state hashes above it is timing-independent, which is
	// what lets a fault campaign compare a retry-delayed run against its
	// fault-free golden twin for silent data corruption.
	s.record(flightrec.KindReadHash, -1, -1, s.readHash, s.readCount, "")
}

// mappingHash fingerprints the swapping table: the physical location of
// every architected register.
func (s *sm) mappingHash() uint64 {
	m := s.rf.SwapTable()
	h := uint64(fnvOffset)
	for r := 0; r < isa.MaxRegs; r++ {
		h = fnvAdd(h, uint64(m.Lookup(isa.Reg(r))))
	}
	return h
}

// FNV-1a 64-bit constants. fnvPrime4 is fnvPrime to the 4th power,
// mod 2^64: the multiplies of four zero bytes in a row.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
	fnvPrime4 uint64 = 0x9ffaac085635bc91
)

// fnvAdd folds one 64-bit value into an FNV-1a hash, byte by byte.
func fnvAdd(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// fnvAdd32 folds a 32-bit value into an FNV-1a hash exactly as
// fnvAdd(h, uint64(v)) does, in half the steps: the four zero high
// bytes xor in nothing, so their multiplies collapse into one by
// fnvPrime4.
func fnvAdd32(h uint64, v uint32) uint64 {
	h = (h ^ uint64(v&0xff)) * fnvPrime
	h = (h ^ uint64(v>>8&0xff)) * fnvPrime
	h = (h ^ uint64(v>>16&0xff)) * fnvPrime
	h = (h ^ uint64(v>>24)) * fnvPrime
	return h * fnvPrime4
}

// rowPrime is the odd multiplier of rowHash's steps, 2^64 over the
// golden ratio.
const rowPrime uint64 = 0x9e3779b97f4a7c15

// rowHash hashes one register row as sixteen 64-bit words, two lanes
// each, in four independent multiply–xor accumulators, so a row's
// multiplies overlap instead of waiting on one another. Every step is a
// bijection of its accumulator and injective in its word, so a change
// confined to one word, any single flipped bit included, changes the
// hash. The rotation keeps a difference in bit 63, which a multiply
// passes on unchanged, from cancelling the next word's: without it two
// lanes of one accumulator that differ only in bit 31 would swap
// unseen.
func rowHash(row *[32]uint32) uint64 {
	var h0, h1, h2, h3 uint64
	for r := row[:]; len(r) >= 8; r = r[8:] {
		h0 = bits.RotateLeft64((h0^(uint64(r[0])|uint64(r[1])<<32))*rowPrime, 31)
		h1 = bits.RotateLeft64((h1^(uint64(r[2])|uint64(r[3])<<32))*rowPrime, 31)
		h2 = bits.RotateLeft64((h2^(uint64(r[4])|uint64(r[5])<<32))*rowPrime, 31)
		h3 = bits.RotateLeft64((h3^(uint64(r[6])|uint64(r[7])<<32))*rowPrime, 31)
	}
	return h0 ^ bits.RotateLeft64(h1, 16) ^ bits.RotateLeft64(h2, 32) ^ bits.RotateLeft64(h3, 48)
}
