// Package profile implements the three register-profiling techniques the
// paper evaluates — compiler-based, pilot-warp, and hybrid — plus the
// static-first-N and oracle reference points, and the per-SM hardware
// model that supports them: 63 two-byte saturating access counters, the
// pilot-warp-id register, and the profile mask bit (Section III-B).
package profile

import (
	"fmt"

	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
	"pilotrf/internal/regfile"
	"pilotrf/internal/stats"
)

// Technique selects how the highly accessed register set is identified.
type Technique uint8

// Profiling techniques.
const (
	// TechniqueStaticFirstN performs no profiling: the first n
	// architected registers stay in the FRF. The paper's strawman.
	TechniqueStaticFirstN Technique = iota
	// TechniqueCompiler uses the static register census from the
	// kernel binary, available from cycle zero.
	TechniqueCompiler
	// TechniquePilot uses the pilot warp's dynamic counts, available
	// only after the pilot completes.
	TechniquePilot
	// TechniqueHybrid seeds the mapping with the compiler census and
	// replaces it with the pilot result when the pilot completes. The
	// paper's preferred design.
	TechniqueHybrid
	// TechniqueOracle installs the true top-N registers (measured by a
	// full prior run) from cycle zero. The upper bound in Figure 4.
	TechniqueOracle
)

// String returns the technique name used in Figure 4.
func (t Technique) String() string {
	switch t {
	case TechniqueStaticFirstN:
		return "static-first-n"
	case TechniqueCompiler:
		return "compiler"
	case TechniquePilot:
		return "pilot"
	case TechniqueHybrid:
		return "hybrid"
	case TechniqueOracle:
		return "optimal"
	default:
		return fmt.Sprintf("TECH_%d", uint8(t))
	}
}

// ParseTechnique maps a command-line -profile name to its technique:
// static, compiler, pilot or hybrid. An unknown name is an error listing
// the valid ones.
func ParseTechnique(name string) (Technique, error) {
	switch name {
	case "static":
		return TechniqueStaticFirstN, nil
	case "compiler":
		return TechniqueCompiler, nil
	case "pilot":
		return TechniquePilot, nil
	case "hybrid":
		return TechniqueHybrid, nil
	}
	return 0, fmt.Errorf("unknown profile %q (valid: static, compiler, pilot, hybrid)", name)
}

// CompilerTopN returns the n registers appearing most often in the kernel
// binary — the instrumented-compiler profile.
func CompilerTopN(p *kernel.Program, n int) []isa.Reg {
	return topRegs(p.StaticRegCounts(), n)
}

func topRegs(h *stats.Histogram, n int) []isa.Reg {
	kvs := h.TopN(n)
	out := make([]isa.Reg, len(kvs))
	for i, kv := range kvs {
		out[i] = isa.Reg(kv.Key)
	}
	return out
}

// Counters is the per-SM profiling hardware: 63 two-byte saturating
// counters indexed by register number, a pilot-warp-id register, and the
// profile mask bit. The mask is set at kernel launch and cleared when the
// pilot warp terminates.
type Counters struct {
	counts    [isa.MaxRegs]uint16
	pilotWarp int
	mask      bool
}

// NewCounters returns idle profiling hardware.
func NewCounters() *Counters { return &Counters{pilotWarp: -1} }

// StartKernel arms the counters for a new kernel with the given pilot
// warp (an SM-local warp slot id).
func (c *Counters) StartKernel(pilotWarp int) {
	if pilotWarp < 0 {
		panic(fmt.Sprintf("profile: pilot warp %d", pilotWarp))
	}
	c.counts = [isa.MaxRegs]uint16{}
	c.pilotWarp = pilotWarp
	c.mask = true
}

// Active reports whether the profiling phase is in progress.
func (c *Counters) Active() bool { return c.mask }

// PilotWarp returns the armed pilot warp id (-1 when idle).
func (c *Counters) PilotWarp() int {
	if !c.mask {
		return -1
	}
	return c.pilotWarp
}

// OnAccess records a register access by a warp. As in hardware, the mask
// bit is checked first and then the warp id is compared against the
// pilot-warp-id register; counters saturate at 65535.
func (c *Counters) OnAccess(warp int, r isa.Reg) {
	if !c.mask || warp != c.pilotWarp || !r.Valid() {
		return
	}
	if c.counts[r] != ^uint16(0) {
		c.counts[r]++
	}
}

// PilotExited clears the mask bit; the counters hold their final values
// for sorting.
func (c *Counters) PilotExited() { c.mask = false }

// TopN sorts the counter values and returns the n most-accessed
// registers (the paper performs this sort with the GPU's SHFL support).
func (c *Counters) TopN(n int) []isa.Reg {
	h := stats.NewHistogram(isa.MaxRegs)
	for r, v := range c.counts {
		h.Add(r, uint64(v))
	}
	return topRegs(h, n)
}

// Count returns the recorded access count for register r.
func (c *Counters) Count(r isa.Reg) uint16 {
	if !r.Valid() {
		return 0
	}
	return c.counts[r]
}

// Controller drives one SM's swapping table through the kernel lifecycle
// for a chosen technique: seed at launch, re-map when the pilot finishes.
type Controller struct {
	Technique Technique
	// FRFRegs is the FRF capacity in registers per thread; every
	// technique promotes that many registers.
	FRFRegs int

	// SM identifies the owning SM in audit events.
	SM int
	// Audit, when non-nil, receives one PlacementEvent per FRF-resident
	// register at every swapping-table (re)configuration — the
	// swap-decision audit trail. Nil disables auditing with no overhead.
	Audit *AuditLog
	// Now supplies the current cycle for audit timestamps (nil stamps
	// cycle 0).
	Now func() int64

	table    *regfile.SwapTable
	counters *Counters

	kernel    *kernel.Program
	oracle    []isa.Reg
	pilotDone bool
}

// NewController returns a controller promoting frfRegs registers through
// the given swapping table. For TechniqueOracle the caller must provide
// the measured top registers via SetOracle before the kernel launches.
func NewController(tech Technique, frfRegs int, table *regfile.SwapTable) (*Controller, error) {
	if frfRegs <= 0 {
		return nil, fmt.Errorf("profile: FRF of %d registers", frfRegs)
	}
	return &Controller{
		Technique: tech,
		FRFRegs:   frfRegs,
		table:     table,
		counters:  NewCounters(),
	}, nil
}

// SetOracle provides the true top registers for TechniqueOracle.
func (c *Controller) SetOracle(top []isa.Reg) { c.oracle = top }

// Counters exposes the profiling hardware (for tests and statistics).
func (c *Controller) Counters() *Counters { return c.counters }

// PilotDone reports whether the pilot warp has completed.
func (c *Controller) PilotDone() bool { return c.pilotDone }

// KernelLaunch configures the initial mapping and arms the pilot
// counters. pilotWarp is the SM-local slot of the first launched warp.
func (c *Controller) KernelLaunch(p *kernel.Program, pilotWarp int) {
	c.pilotDone = false
	c.kernel = p
	c.table.Reset()
	var promoted map[isa.Reg]bool
	switch c.Technique {
	case TechniqueStaticFirstN:
		// Identity mapping: R0..R(n-1) stay in the FRF.
	case TechniqueCompiler, TechniqueHybrid:
		top := CompilerTopN(p, c.FRFRegs)
		c.table.Configure(top, c.FRFRegs)
		promoted = regSet(top, c.Audit != nil)
	case TechniquePilot:
		// Identity until the pilot reports.
	case TechniqueOracle:
		if c.oracle == nil {
			panic("profile: oracle technique without SetOracle")
		}
		top := c.oracle
		if len(top) > c.FRFRegs {
			top = top[:c.FRFRegs]
		}
		c.table.Configure(top, c.FRFRegs)
		promoted = regSet(top, c.Audit != nil)
	}
	if c.Audit != nil {
		census := p.StaticRegCounts()
		c.auditConfiguration(func(r isa.Reg) (PlacementReason, uint64) {
			switch {
			case promoted[r] && c.Technique == TechniqueOracle:
				return PlaceOracle, census.Count(int(r))
			case promoted[r]:
				return PlaceCompilerSeed, census.Count(int(r))
			default:
				return PlaceStaticDefault, 0
			}
		})
	}
	if c.usesPilot() {
		c.counters.StartKernel(pilotWarp)
	}
}

// regSet builds a membership set when enabled (auditing off skips the
// allocation entirely).
func regSet(regs []isa.Reg, enabled bool) map[isa.Reg]bool {
	if !enabled {
		return nil
	}
	set := make(map[isa.Reg]bool, len(regs))
	for _, r := range regs {
		set[r] = true
	}
	return set
}

// residents collects the architected registers currently mapped into the
// FRF for the resident kernel.
func (c *Controller) residents() map[isa.Reg]bool {
	set := make(map[isa.Reg]bool, c.FRFRegs)
	for a := 0; a < c.kernel.NumRegs; a++ {
		r := isa.Reg(a)
		if int(c.table.Lookup(r)) < c.FRFRegs {
			set[r] = true
		}
	}
	return set
}

// auditConfiguration records one PlacementEvent per FRF-resident
// register, asking reasonFor to explain each residency.
func (c *Controller) auditConfiguration(reasonFor func(r isa.Reg) (PlacementReason, uint64)) {
	var now int64
	if c.Now != nil {
		now = c.Now()
	}
	for a := 0; a < c.kernel.NumRegs; a++ {
		r := isa.Reg(a)
		slot := c.table.Lookup(r)
		if int(slot) >= c.FRFRegs {
			continue
		}
		reason, count := reasonFor(r)
		c.Audit.Record(PlacementEvent{
			Kernel: c.kernel.Name, SM: c.SM, Cycle: now,
			Technique: c.Technique, Reason: reason,
			Reg: r, Slot: slot, Count: count,
		})
	}
}

func (c *Controller) usesPilot() bool {
	return c.Technique == TechniquePilot || c.Technique == TechniqueHybrid
}

// OnRegAccess feeds the profiling counters. The check order mirrors the
// hardware: mask bit, then warp id.
func (c *Controller) OnRegAccess(warp int, r isa.Reg) {
	if c.usesPilot() {
		c.counters.OnAccess(warp, r)
	}
}

// OnWarpComplete must be called when a warp finishes all its threads. If
// it is the pilot, the counters are sorted and the swapping table is
// reconfigured (the mapping is first reset to the default layout, then
// the pilot's top registers are applied — the paper's simplification).
func (c *Controller) OnWarpComplete(warp int) {
	if !c.usesPilot() || c.pilotDone || warp != c.counters.PilotWarp() {
		return
	}
	c.counters.PilotExited()
	c.pilotDone = true
	var prev map[isa.Reg]bool
	if c.Audit != nil {
		prev = c.residents()
	}
	c.table.Configure(c.counters.TopN(c.FRFRegs), c.FRFRegs)
	if c.Audit != nil {
		c.auditConfiguration(func(r isa.Reg) (PlacementReason, uint64) {
			reason := PlacePilotMeasured
			if c.Technique == TechniqueHybrid && !prev[r] {
				// The pilot displaced a compiler-seeded or default
				// resident — the hybrid replacement Figure 4 credits.
				reason = PlaceHybridReplacement
			}
			return reason, uint64(c.counters.Count(r))
		})
	}
}
