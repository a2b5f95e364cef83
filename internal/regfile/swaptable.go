// Package regfile implements the register file organizations evaluated in
// the paper: the monolithic MRF (at STV or NTV), and the partitioned
// FRF+SRF design with its register swapping table and the adaptive
// (back-gate controlled) FRF power-mode controller.
package regfile

import (
	"fmt"

	"pilotrf/internal/isa"
)

// SwapEntry is one row of the swapping table: a valid bit, the architected
// register, and its current physical location (13 bits in hardware: 6+6+1).
type SwapEntry struct {
	Valid  bool
	Orig   isa.Reg
	Mapped isa.Reg
}

// SwapTable is the CAM-based register swapping table: 2n entries for a
// top-n register set (n displaced FRF residents plus n promoted
// registers). It is configured once per kernel phase (compiler seed, then
// pilot result), so hardware replicates it per scheduler without
// consistency concerns; the model therefore keeps a single instance.
type SwapTable struct {
	entries []SwapEntry
}

// NewSwapTable returns a swapping table with capacity for topN promoted
// registers (2*topN entries).
func NewSwapTable(topN int) (*SwapTable, error) {
	if topN <= 0 {
		return nil, fmt.Errorf("regfile: swap table needs a positive top-n register count, got %d", topN)
	}
	return &SwapTable{entries: make([]SwapEntry, 0, 2*topN)}, nil
}

// Reset invalidates every entry, restoring the identity mapping.
func (t *SwapTable) Reset() { t.entries = t.entries[:0] }

// Configure installs the mapping that places topRegs (ordered by access
// count, most-accessed first) in the FRF slots. Per the paper, the mapping
// is always applied on top of the default (identity) layout: callers see
// the table reset first, then pairwise swaps between promoted registers
// and the default FRF residents they displace. Registers in topRegs that
// already live in the FRF (index < frfRegs) keep their slot and consume
// no table entries.
func (t *SwapTable) Configure(topRegs []isa.Reg, frfRegs int) {
	t.Reset()
	if len(topRegs) > frfRegs {
		panic(fmt.Sprintf("regfile: %d top registers exceed FRF capacity %d", len(topRegs), frfRegs))
	}
	// FRF slots not claimed by an already-resident top register are free
	// to host promoted registers.
	claimed := make(map[isa.Reg]bool, len(topRegs))
	for _, r := range topRegs {
		if int(r) < frfRegs {
			claimed[r] = true
		}
	}
	slot := isa.Reg(0)
	nextFree := func() isa.Reg {
		for claimed[slot] {
			slot++
		}
		s := slot
		slot++
		return s
	}
	for _, r := range topRegs {
		if !r.Valid() {
			panic(fmt.Sprintf("regfile: cannot promote %s", r))
		}
		if int(r) < frfRegs {
			continue // already resident
		}
		s := nextFree()
		// Arch s now lives where r used to, and r lives in slot s.
		t.entries = append(t.entries,
			SwapEntry{Valid: true, Orig: s, Mapped: r},
			SwapEntry{Valid: true, Orig: r, Mapped: s},
		)
	}
}

// Lookup CAM-searches the table for r; absent registers map to themselves.
func (t *SwapTable) Lookup(r isa.Reg) isa.Reg {
	for i := range t.entries {
		if t.entries[i].Valid && t.entries[i].Orig == r {
			return t.entries[i].Mapped
		}
	}
	return r
}

// Entries returns a copy of the current table contents (for inspection
// and the Figure 7 walkthrough).
func (t *SwapTable) Entries() []SwapEntry {
	out := make([]SwapEntry, len(t.entries))
	copy(out, t.entries)
	return out
}

// EntryBits is the width of one swapping-table row in hardware: a 6-bit
// original register id, a 6-bit mapped id, and a valid bit.
const EntryBits = 13

// Bits returns the table's storage cost in bits: EntryBits per entry at
// the table's capacity.
func (t *SwapTable) Bits() int { return cap(t.entries) * EntryBits }

// Len returns the number of live (installed) entries, valid or not.
func (t *SwapTable) Len() int { return len(t.entries) }

// encodeEntry packs a row into its 13-bit hardware layout: bits 0-5
// Orig, bits 6-11 Mapped, bit 12 Valid.
func encodeEntry(e SwapEntry) uint16 {
	w := uint16(e.Orig&0x3F) | uint16(e.Mapped&0x3F)<<6
	if e.Valid {
		w |= 1 << 12
	}
	return w
}

// decodeEntry unpacks the 13-bit hardware layout back into a row.
func decodeEntry(w uint16) SwapEntry {
	return SwapEntry{
		Orig:   isa.Reg(w & 0x3F),
		Mapped: isa.Reg(w >> 6 & 0x3F),
		Valid:  w>>12&1 == 1,
	}
}

// FlipBit models a soft-error upset in the CAM: it flips one bit of
// entry i's 13-bit encoding in place and returns the resulting row.
// Depending on the bit this corrupts the original id (a different
// architected register now matches), the mapped id (lookups return the
// wrong physical register), or the valid bit (the swap silently
// disappears). It panics on an out-of-range entry or bit — fault
// injection owns victim selection and never passes either.
func (t *SwapTable) FlipBit(i, bit int) SwapEntry {
	e := decodeEntry(encodeEntry(t.entries[i]) ^ 1<<bit)
	t.entries[i] = e
	return e
}

// Invalidate clears entry i's valid bit, modeling a scrub of a
// detected-corrupt row (the register pair falls back to the identity
// mapping until the next Configure).
func (t *SwapTable) Invalidate(i int) { t.entries[i].Valid = false }

// IndexedSwapTable is the direct-indexed alternative the paper also
// evaluated: a 63-entry RAM indexed by architected register number. Its
// behaviour is identical to the CAM design (the paper found the energy
// difference negligible); both are provided so the equivalence is testable.
type IndexedSwapTable struct {
	mapping [isa.MaxRegs]isa.Reg
}

// NewIndexedSwapTable returns an identity-mapped indexed table.
func NewIndexedSwapTable() *IndexedSwapTable {
	t := &IndexedSwapTable{}
	t.Reset()
	return t
}

// Reset restores the identity mapping.
func (t *IndexedSwapTable) Reset() {
	for i := range t.mapping {
		t.mapping[i] = isa.Reg(i)
	}
}

// Configure installs the mapping for topRegs (see SwapTable.Configure).
func (t *IndexedSwapTable) Configure(topRegs []isa.Reg, frfRegs int) {
	t.Reset()
	// Reuse the CAM algorithm to guarantee identical placement. The
	// capacity argument is clamped positive, so the error is impossible.
	cam, _ := NewSwapTable(max(len(topRegs), 1))
	cam.Configure(topRegs, frfRegs)
	for _, e := range cam.Entries() {
		t.mapping[e.Orig] = e.Mapped
	}
}

// Lookup returns the physical register for r.
func (t *IndexedSwapTable) Lookup(r isa.Reg) isa.Reg {
	if !r.Valid() {
		return r
	}
	return t.mapping[r]
}
