package design

import (
	"fmt"

	"pilotrf/internal/energy"
	"pilotrf/internal/isa"
	"pilotrf/internal/regfile"
)

// greener is GREENER-style register-liveness power gating (arXiv
// 1709.04697) on a monolithic MRF: a register row is powered on by its
// first write and a warp's rows are powered off when the warp retires,
// so dead rows leak only the gating residue. Size is the gating
// granularity in rows per domain; Voltage picks the MRF supply.
type greener struct{}

// Name implements Scheme.
func (greener) Name() string { return "greener" }

// Doc implements Scheme.
func (greener) Doc() string {
	return "GREENER-style liveness power gating: dead register rows sleep"
}

// DefaultKnobs implements Scheme: per-row gating at standard voltage.
func (greener) DefaultKnobs() Knobs { return Knobs{} }

// Validate implements Scheme.
func (g greener) Validate(k Knobs) error {
	if _, err := voltageOf(k.Voltage, "stv"); err != nil {
		return err
	}
	if k.Size < 0 || k.Size > 64 {
		return fmt.Errorf("design: greener gating granularity %d outside [1,64] (0 = per-row)", k.Size)
	}
	return nil
}

// Grid implements Scheme: per-row vs domain gating at both voltages.
func (g greener) Grid() []Knobs {
	return []Knobs{{}, {Size: 8}, {Voltage: "ntv"}, {Size: 8, Voltage: "ntv"}}
}

// Settings implements Scheme: the base monolithic configuration plus the
// gating tracker. Timing is identical to the base design — gating is an
// energy-only observer — which is what lets the scheme pass the replay
// property against its base recording.
func (g greener) Settings(k Knobs) (Settings, error) {
	if err := g.Validate(k); err != nil {
		return Settings{}, err
	}
	gran := k.Size
	if gran == 0 {
		gran = 1
	}
	d, _ := voltageOf(k.Voltage, "stv") // Validate accepted the voltage
	return Settings{RF: regfile.DefaultConfig(d), Gating: &GatingConfig{Granularity: gran}}, nil
}

// Energy implements Scheme: the timing and dynamic energy are the
// monolithic MRF's at the selected voltage; leakage is gated by the
// measured live-row fraction (sleep transistors retain the residue
// energy.GatedLeakageMW models).
func (g greener) Energy(k Knobs, r Run) energy.Report {
	d, _ := voltageOf(k.Voltage, "stv") // a run's knobs passed Settings
	return averageLeakage(energy.Report{
		Design:    d,
		Cycles:    r.Cycles,
		DynamicPJ: energy.DynamicPJ(d, r.PartAccesses),
		LeakagePJ: energy.GatedLeakagePJ(d, r.Gating.LiveFraction(), r.Cycles),
	})
}

// GatingStats are the integer liveness counters the tracker accumulates;
// being integers, they merge and compare exactly across runs.
type GatingStats struct {
	// LiveRowCycles accumulates powered-on register rows per cycle;
	// GatedRowCycles the powered-off remainder of the RF's capacity.
	LiveRowCycles  uint64
	GatedRowCycles uint64
	// Wakeups counts gating-domain power-on events (first writes).
	Wakeups uint64
}

// Add folds another tracker's counters in.
func (g *GatingStats) Add(o GatingStats) {
	g.LiveRowCycles += o.LiveRowCycles
	g.GatedRowCycles += o.GatedRowCycles
	g.Wakeups += o.Wakeups
}

// LiveFraction returns powered-on row-cycles over the total, or 1 (no
// savings) when nothing was tracked.
func (g GatingStats) LiveFraction() float64 {
	total := g.LiveRowCycles + g.GatedRowCycles
	if total == 0 {
		return 1
	}
	return float64(g.LiveRowCycles) / float64(total)
}

// GatingTracker maintains one SM's liveness masks: which architected
// registers of each resident warp have been written since the warp
// launched. The simulator drives it with OnWrite/OnWarpRetire/Tick; all
// state is integer bookkeeping off the timing path.
type GatingTracker struct {
	gran     int
	capacity int
	written  []uint64 // per warp slot: mask of written architected registers
	liveOf   []int    // per warp slot: granularity-rounded live rows
	live     int
	stats    GatingStats
}

// NewGatingTracker returns a tracker for an SM with the given warp slots
// and total register-row capacity (the warp-register budget).
func NewGatingTracker(cfg GatingConfig, warpSlots, capacityRows int) *GatingTracker {
	gran := cfg.Granularity
	if gran <= 0 {
		gran = 1
	}
	if warpSlots <= 0 || capacityRows <= 0 {
		panic(fmt.Sprintf("design: gating tracker over %d slots / %d rows", warpSlots, capacityRows))
	}
	return &GatingTracker{
		gran:     gran,
		capacity: capacityRows,
		written:  make([]uint64, warpSlots),
		liveOf:   make([]int, warpSlots),
	}
}

// domainMask returns the mask of the gating domain containing register r.
func (t *GatingTracker) domainMask(r isa.Reg) uint64 {
	lo := (int(r) / t.gran) * t.gran
	width := t.gran
	if lo+width > 64 {
		width = 64 - lo
	}
	return ((uint64(1) << width) - 1) << lo
}

// OnWrite powers on the domain holding register r of the warp slot, if
// it is not already awake.
func (t *GatingTracker) OnWrite(slot int, r isa.Reg) {
	if !r.Valid() {
		return
	}
	dom := t.domainMask(r)
	if t.written[slot]&dom == 0 {
		t.stats.Wakeups++
		t.live += t.gran
		t.liveOf[slot] += t.gran
	}
	t.written[slot] |= uint64(1) << uint(r)
}

// OnWarpRetire powers off every row of the warp slot — the warp's
// registers are dead once it completes.
func (t *GatingTracker) OnWarpRetire(slot int) {
	t.live -= t.liveOf[slot]
	t.liveOf[slot] = 0
	t.written[slot] = 0
}

// Tick accumulates one cycle of liveness: live rows stay powered, the
// rest of the capacity is gated.
func (t *GatingTracker) Tick() {
	live := t.live
	if live > t.capacity {
		live = t.capacity
	}
	t.stats.LiveRowCycles += uint64(live)
	t.stats.GatedRowCycles += uint64(t.capacity - live)
}

// LiveRows returns the currently powered-on row count (for tests).
func (t *GatingTracker) LiveRows() int { return t.live }

// Stats returns the accumulated counters.
func (t *GatingTracker) Stats() GatingStats { return t.stats }
