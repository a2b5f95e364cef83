package regfile

import (
	"testing"

	"pilotrf/internal/isa"
)

// Flipping each of the 13 entry bits must corrupt exactly one field:
// bits 0-5 the original id, 6-11 the mapped id, 12 the valid bit.
func TestFlipBitFieldBoundaries(t *testing.T) {
	for bit := 0; bit < EntryBits; bit++ {
		st := mustSwapTable(t, 4)
		st.Configure(regs(8, 9, 10, 11), 4)
		before := st.Entries()[0]
		after := st.FlipBit(0, bit)
		switch {
		case bit < 6:
			if after.Orig == before.Orig || after.Mapped != before.Mapped || after.Valid != before.Valid {
				t.Errorf("bit %d: want only Orig to change, %+v -> %+v", bit, before, after)
			}
		case bit < 12:
			if after.Mapped == before.Mapped || after.Orig != before.Orig || after.Valid != before.Valid {
				t.Errorf("bit %d: want only Mapped to change, %+v -> %+v", bit, before, after)
			}
		default:
			if after.Valid == before.Valid || after.Orig != before.Orig || after.Mapped != before.Mapped {
				t.Errorf("bit %d: want only Valid to change, %+v -> %+v", bit, before, after)
			}
		}
		// A second flip of the same bit restores the row exactly.
		if restored := st.FlipBit(0, bit); restored != before {
			t.Errorf("bit %d: double flip %+v != original %+v", bit, restored, before)
		}
	}
}

// An orig-id upset can alias two entries onto the same architected
// register. The CAM's first-match priority must stay deterministic.
func TestCorruptedCAMDuplicateOrig(t *testing.T) {
	st := mustSwapTable(t, 4)
	st.Configure(regs(8, 9), 4)
	// Entries: {R0->R8, R8->R0, R1->R9, R9->R1}. Force entry 2's Orig
	// from R1 to R0 by flipping bit 0 (R1 ^ 1 = R0), creating a
	// duplicate R0 key.
	e := st.FlipBit(2, 0)
	if e.Orig != isa.R(0) {
		t.Fatalf("flip produced Orig %s, want R0", e.Orig)
	}
	// First match wins: entry 0 still answers for R0.
	if got := st.Lookup(isa.R(0)); got != isa.R(8) {
		t.Errorf("duplicate-key Lookup(R0) = %s, want first-match R8", got)
	}
	// The aliased entry's old key now misses and falls back to identity:
	// R1 silently routes to the SRF-resident physical R1.
	if got := st.Lookup(isa.R(1)); got != isa.R(1) {
		t.Errorf("Lookup(R1) after alias = %s, want identity R1", got)
	}
}

// A valid-bit upset (or a scrub via Invalidate) makes the entry
// invisible to lookups: the register pair reverts to identity one side
// at a time, breaking the involution — exactly the silent asymmetry a
// CAM fault produces in hardware.
func TestInvalidatedEntryLookup(t *testing.T) {
	st := mustSwapTable(t, 4)
	st.Configure(regs(8), 4)
	st.Invalidate(0) // drop R0->R8, keep R8->R0
	if got := st.Lookup(isa.R(0)); got != isa.R(0) {
		t.Errorf("invalidated entry still matched: Lookup(R0) = %s", got)
	}
	if got := st.Lookup(isa.R(8)); got != isa.R(0) {
		t.Errorf("sibling entry lost: Lookup(R8) = %s, want R0", got)
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d, want 2 (invalidation does not remove rows)", st.Len())
	}
	// Reconfigure heals the table completely.
	st.Configure(regs(8), 4)
	if got := st.Lookup(isa.R(0)); got != isa.R(8) {
		t.Errorf("Configure did not heal the table: Lookup(R0) = %s", got)
	}
}

// A mapped-id upset silently reroutes an architected register to the
// wrong physical location — the File must follow the corrupted mapping
// (that is the fault model) while all other registers are unaffected.
func TestCorruptedMappingReroutes(t *testing.T) {
	f := mustFile(t, DefaultConfig(DesignPartitioned))
	cam := f.SwapTable()
	cam.Configure(regs(8, 9, 10, 11), 4)
	// Entry 1 is R8->R0; flipping mapped bit 8 (field bit 2) sends R8 to
	// physical R4 — an SRF row instead of its FRF slot.
	e := cam.FlipBit(1, 8)
	if e.Orig != isa.R(8) || e.Mapped != isa.R(4) {
		t.Fatalf("unexpected corrupted row %+v", e)
	}
	if part, _ := route(f, isa.R(8)); part != PartSRF {
		t.Errorf("corrupted R8 routed to %v, want SRF", part)
	}
	if got := f.PhysicalReg(isa.R(8)); got != isa.R(4) {
		t.Errorf("PhysicalReg(R8) = %s, want corrupted R4", got)
	}
	// Untouched entries keep their placement.
	if part, _ := route(f, isa.R(9)); part != PartFRFHigh {
		t.Errorf("uncorrupted R9 routed to %v, want FRF_high", part)
	}
}

// An adaptive power-mode flip between two accesses of a swapped register
// must change only the partition's power mode, never the placement: the
// swap table and the mode controller are independent hardware.
func TestAdaptiveModeFlipMidSwapKeepsPlacement(t *testing.T) {
	cfg := DefaultConfig(DesignPartitionedAdaptive)
	f := mustFile(t, cfg)
	f.SwapTable().Configure(regs(10, 11), 4)
	physBefore := f.PhysicalReg(isa.R(10))
	part, _ := route(f, isa.R(10))
	if part != PartFRFHigh {
		t.Fatalf("promoted R10 routed to %v before flip", part)
	}
	// Idle epoch mid-swap: the FRF drops to low power.
	for i := 0; i < cfg.Adaptive.EpochCycles; i++ {
		f.Adaptive().Tick()
	}
	part, _ = route(f, isa.R(10))
	if part != PartFRFLow {
		t.Fatalf("promoted R10 routed to %v after flip, want FRF_low", part)
	}
	if got := f.PhysicalReg(isa.R(10)); got != physBefore {
		t.Errorf("mode flip moved R10: %s -> %s", physBefore, got)
	}
	// Displaced R0 stays in the SRF either way.
	if part, _ := route(f, isa.R(0)); part != PartSRF {
		t.Errorf("displaced R0 routed to %v", part)
	}
}

// With injection disabled the fault hooks are inert: a freshly
// configured CAM equals the indexed reference for every register, and
// CAMBits sizes only partitioned designs.
func TestFaultHooksInertWithoutInjection(t *testing.T) {
	f := mustFile(t, DefaultConfig(DesignPartitioned))
	f.SwapTable().Configure(regs(40, 1, 62, 0), 4)
	idx := NewIndexedSwapTable()
	idx.Configure(regs(40, 1, 62, 0), 4)
	for r := 0; r < isa.MaxRegs; r++ {
		if f.PhysicalReg(isa.R(r)) != idx.Lookup(isa.R(r)) {
			t.Errorf("placement diverged from reference at R%d", r)
		}
	}
	if got := f.CAMBits(); got != 104 {
		t.Errorf("partitioned CAMBits = %d, want 104", got)
	}
	mono := mustFile(t, DefaultConfig(DesignMonolithicNTV))
	if got := mono.CAMBits(); got != 0 {
		t.Errorf("monolithic CAMBits = %d, want 0", got)
	}
}
