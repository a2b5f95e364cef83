// Package energy converts the simulator's access counts and execution
// times into register file energy figures, using the FinCACTI-derived
// per-access energies and leakage powers (Table IV). It produces the
// quantities Figures 11 and 13 and the leakage analysis report: dynamic
// energy per design, leakage energy over the run, and savings normalized
// to the MRF@STV baseline.
package energy

import (
	"fmt"

	"pilotrf/internal/fincacti"
	"pilotrf/internal/finfet"
	"pilotrf/internal/regfile"
	"pilotrf/internal/rfc"
)

// ClockGHz is the SM clock (the paper's 900 MHz Kepler clock).
const ClockGHz = 0.9

// arrays returns what a design is made of, as energy prices it: the
// FinCACTI array behind each partition slot, indexed by
// regfile.Partition (the MRF slot at the design's supply), and which
// slots are built arrays that leak. A monolithic design leaks in its MRF
// alone; a partitioned one in the FRF (its high-power slot — the
// adaptive low-cap mode changes access energy, not array leakage) and
// the SRF. DynamicPJ, PerAccessTable, LeakageMW and GatedLeakageMW all
// read this one table.
func arrays(d regfile.Design) (slots [4]fincacti.RFConfig, leaks [4]bool) {
	if d > regfile.DesignPartitionedAdaptive {
		panic(fmt.Sprintf("energy: unknown design %v", d))
	}
	vdd := finfet.STV
	if d == regfile.DesignMonolithicNTV {
		vdd = finfet.NTV
	}
	slots[regfile.PartMRF] = fincacti.MRFConfig(vdd)
	slots[regfile.PartFRFHigh] = fincacti.FRFConfig(fincacti.ModeNormal)
	slots[regfile.PartFRFLow] = fincacti.FRFConfig(fincacti.ModeLowCap)
	slots[regfile.PartSRF] = fincacti.SRFConfig()
	part := d.Partitioned()
	leaks[regfile.PartMRF] = !part
	leaks[regfile.PartFRFHigh], leaks[regfile.PartSRF] = part, part
	return slots, leaks
}

// DynamicPJ returns the RF dynamic energy in picojoules for a run's
// partition-access counts under the given design.
func DynamicPJ(d regfile.Design, parts [4]uint64) float64 {
	e := PerAccessTable(d)
	var total float64
	for p, n := range parts {
		total += float64(n) * e[p]
	}
	return total
}

// PerAccessTable returns the per-access energies used by DynamicPJ for a
// design, indexed by regfile.Partition — the pricing table streaming
// attribution layers (the Ledger, the metrics recorder) apply per epoch.
// Pricing a set of access counts with this table and summing in
// partition order reproduces DynamicPJ bit-exactly.
func PerAccessTable(d regfile.Design) [4]float64 {
	slots, _ := arrays(d)
	var e [4]float64
	for p, a := range slots {
		e[p] = a.AccessEnergyPJ()
	}
	return e
}

// LeakageMW returns the total RF leakage power for a design in
// milliwatts, summed over its leaking arrays in partition order.
func LeakageMW(d regfile.Design) float64 {
	slots, leaks := arrays(d)
	var mw float64
	for p, a := range slots {
		if leaks[p] {
			mw += a.LeakagePowerMW()
		}
	}
	return mw
}

// LeakagePJ integrates a design's leakage power over a run of the given
// number of cycles at the SM clock.
func LeakagePJ(d regfile.Design, cycles int64) float64 {
	// mW x ns = pJ.
	nanos := float64(cycles) / ClockGHz
	return LeakageMW(d) * nanos
}

// GatedLeakagePJ integrates GatedLeakageMW over a run — the leakage of a
// liveness-gated design whose rows were powered on for the given
// fraction of row-cycles (the internal/design GREENER scheme's measured
// live fraction).
func GatedLeakagePJ(d regfile.Design, occupancy float64, cycles int64) float64 {
	nanos := float64(cycles) / ClockGHz
	return GatedLeakageMW(d, occupancy) * nanos
}

// GatedLeakageMW returns a design's leakage when the rows of unallocated
// registers are power-gated — the "Warped Register File" direction the
// paper cites as related work, modeled here as an extension. occupancy is
// the fraction of warp-register slots actually allocated by the resident
// kernel (Table I: on average ~16 of 63 registers per thread). Cell-array
// leakage scales with occupancy (plus a small always-on gating-network
// overhead); periphery leakage is unaffected.
func GatedLeakageMW(d regfile.Design, occupancy float64) float64 {
	if occupancy < 0 || occupancy > 1 {
		panic(fmt.Sprintf("energy: occupancy %g outside [0,1]", occupancy))
	}
	// Sleep transistors and gating control retain ~3% of the gated
	// rows' leakage.
	const gatingResidue = 0.03
	eff := occupancy + (1-occupancy)*gatingResidue
	slots, leaks := arrays(d)
	var mw float64
	for p, a := range slots {
		switch {
		case !leaks[p]:
			// Not an array of this design.
		case regfile.Partition(p) == regfile.PartFRFHigh:
			// The FRF is fully occupied by construction (it holds the
			// top-N registers of every resident warp); gating applies
			// to the other arrays' unallocated rows.
			mw += a.LeakagePowerMW()
		default:
			cells, periph := a.LeakageBreakdownMW()
			mw += cells*eff + periph
		}
	}
	return mw
}

// Report is the RF energy breakdown of one run.
type Report struct {
	Design    regfile.Design
	Cycles    int64
	DynamicPJ float64
	LeakageMW float64
	LeakagePJ float64
}

// TotalPJ returns dynamic plus leakage energy.
func (r Report) TotalPJ() float64 { return r.DynamicPJ + r.LeakagePJ }

// ForRun builds the energy report for a run's partition counts and
// duration under a design.
func ForRun(d regfile.Design, parts [4]uint64, cycles int64) Report {
	return Report{
		Design:    d,
		Cycles:    cycles,
		DynamicPJ: DynamicPJ(d, parts),
		LeakageMW: LeakageMW(d),
		LeakagePJ: LeakagePJ(d, cycles),
	}
}

// RFCBreakdown prices a register-file-cache run: tag checks, RFC data
// accesses (hits, fills, and result writes), and the MRF traffic behind it
// (read misses and dirty writebacks) at the MRF's operating voltage.
type RFCBreakdown struct {
	TagPJ  float64
	DataPJ float64
	MRFPJ  float64
}

// TotalPJ returns the summed RFC-path dynamic energy.
func (b RFCBreakdown) TotalPJ() float64 { return b.TagPJ + b.DataPJ + b.MRFPJ }

// RFCDynamic prices the RFC events of a run. cfg describes the RFC array;
// vdd is the backing MRF's supply voltage.
func RFCDynamic(st rfc.Stats, cfg fincacti.RFConfig, vdd float64) RFCBreakdown {
	dataAccesses := st.ReadHits + st.Fills + st.Writes
	mrfAccesses := st.MRFReads() + st.MRFWrites()
	return RFCBreakdown{
		TagPJ:  float64(st.TagChecks) * fincacti.RFCTagEnergyPJ(cfg),
		DataPJ: float64(dataAccesses) * fincacti.RFCAccessEnergyPJ(cfg),
		MRFPJ:  float64(mrfAccesses) * fincacti.MRFConfig(vdd).AccessEnergyPJ(),
	}
}

// BaselineDynamicPJ returns what the same accesses would have cost on the
// monolithic MRF@STV baseline — the normalization denominator used by
// Figures 11 and 13.
func BaselineDynamicPJ(totalAccesses uint64) float64 {
	return float64(totalAccesses) * fincacti.MRFConfig(finfet.STV).AccessEnergyPJ()
}

// Savings returns 1 - (design energy / baseline energy).
func Savings(designPJ, baselinePJ float64) float64 {
	if baselinePJ == 0 {
		return 0
	}
	return 1 - designPJ/baselinePJ
}
