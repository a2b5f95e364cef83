package experiments

import (
	"pilotrf/internal/energy"
	"pilotrf/internal/profile"
	"pilotrf/internal/regfile"
	"pilotrf/internal/sim"
	"pilotrf/internal/stats"
	"pilotrf/internal/workloads"
)

// Ablation studies for the design choices DESIGN.md calls out: the FRF
// size (the paper's "top 3 to 5 registers" discussion in Sections II-III)
// and the profiling technique's effect on energy, plus the CAM-vs-indexed
// swapping table equivalence demonstrated in regfile.

// FRFSizePoint is one fast-partition size in the ablation sweep.
type FRFSizePoint struct {
	// FRFRegs is the number of registers per thread in the FRF.
	FRFRegs int
	// FRFSizeKB is the corresponding capacity (regs x 64 warps x 128 B).
	FRFSizeKB float64
	// AvgFRFShare is the suite-average fraction of accesses served by
	// the FRF.
	AvgFRFShare float64
	// AvgSavings is the suite-average dynamic-energy saving vs MRF@STV.
	AvgSavings float64
	// GeoSlowdown is the geomean normalized execution time.
	GeoSlowdown float64
}

// FRFSizeSweep ablates the paper's n = 4 choice: smaller FRFs miss the
// hot set (lower capture, more SRF latency); larger ones grow the fast
// partition without capturing proportionally more accesses (Figure 2's
// shares saturate past the top 5).
func FRFSizeSweep(r *Runner) []FRFSizePoint {
	var out []FRFSizePoint
	for _, n := range []int{2, 3, 4, 5, 6, 8} {
		cfg := r.designConfig("part-adaptive")
		cfg.RF.FRFRegs = n
		p := r.capturePoint(cfg)
		out = append(out, FRFSizePoint{
			FRFRegs:     n,
			FRFSizeKB:   float64(n) * 64 * 128 / 1024,
			AvgFRFShare: p.AvgFRFShare,
			AvgSavings:  p.AvgSavings,
			GeoSlowdown: p.GeoSlowdown,
		})
	}
	return out
}

// capturePoint runs the adaptive partitioned design under cfg over the
// workloads and averages its FRF share, dynamic saving and slowdown.
func (r *Runner) capturePoint(cfg sim.Config) TechniqueEnergyRow {
	base := r.baselineRuns()
	var shares, savings, ratios []float64
	for i, rs := range r.runs(cfg) {
		shares = append(shares, rs.FRFShare())
		savings = append(savings,
			energy.Savings(energy.DynamicPJ(regfile.DesignPartitionedAdaptive, rs.PartAccesses()),
				energy.BaselineDynamicPJ(rs.TotalAccesses())))
		ratios = append(ratios, slowdown(rs, base[i]))
	}
	return TechniqueEnergyRow{
		AvgFRFShare: stats.Mean(shares),
		AvgSavings:  stats.Mean(savings),
		GeoSlowdown: stats.Geomean(ratios),
	}
}

// TechniqueEnergyRow reports one profiling technique's end-to-end effect:
// capture translates into performance (more FRF hits = fewer 3-cycle SRF
// stalls), while dynamic energy is dominated by the partition structure.
type TechniqueEnergyRow struct {
	Technique   string
	AvgFRFShare float64
	AvgSavings  float64
	GeoSlowdown float64
}

// ForwardingPoint is one pipeline-model variant in the writeback
// forwarding ablation.
type ForwardingPoint struct {
	Forwarding bool
	// Geomean normalized execution times vs the matching MRF@STV
	// baseline.
	GeoHybrid float64
	GeoNTV    float64
}

// ForwardingAblation quantifies the divergence EXPERIMENTS.md documents:
// without writeback forwarding each added RF cycle lands on the
// dependency chain twice, roughly doubling every latency overhead. With
// forwarding enabled the NTV and partitioned overheads move toward the
// paper's GPGPU-Sim numbers (7.1% and <2%).
func ForwardingAblation(r *Runner) []ForwardingPoint {
	var out []ForwardingPoint
	for _, fwd := range []bool{false, true} {
		baseCfg := r.designConfig("mrf-stv")
		baseCfg.WritebackForwarding = fwd
		hybCfg := r.designConfig("part-adaptive")
		hybCfg.WritebackForwarding = fwd
		ntvCfg := r.designConfig("mrf-ntv")
		ntvCfg.WritebackForwarding = fwd
		base, hybRuns, ntvRuns := r.runs(baseCfg), r.runs(hybCfg), r.runs(ntvCfg)
		var hyb, ntv []float64
		for i := range base {
			hyb = append(hyb, slowdown(hybRuns[i], base[i]))
			ntv = append(ntv, slowdown(ntvRuns[i], base[i]))
		}
		out = append(out, ForwardingPoint{
			Forwarding: fwd,
			GeoHybrid:  stats.Geomean(hyb),
			GeoNTV:     stats.Geomean(ntv),
		})
	}
	return out
}

// PilotChoicePoint is one pilot-warp selection in the sensitivity study.
type PilotChoicePoint struct {
	// PilotWarpIndex is which warp of the first CTA acts as pilot.
	PilotWarpIndex int
	// AvgFRFShare is the suite-average capture under pilot profiling.
	AvgFRFShare float64
}

// PilotChoiceSensitivity verifies the Section III-A2 claim that the
// profiling result does not depend on which warp serves as the pilot:
// warps of a kernel agree on the sorted register order, so any of them
// identifies the same top set.
func PilotChoiceSensitivity(r *Runner) []PilotChoicePoint {
	var out []PilotChoicePoint
	for _, idx := range []int{0, 1, 3} {
		cfg := r.designConfig("part")
		cfg.Profiling = profile.TechniquePilot
		cfg.PilotWarpIndex = idx
		var shares []float64
		for _, rs := range r.runs(cfg) {
			shares = append(shares, rs.FRFShare())
		}
		out = append(out, PilotChoicePoint{PilotWarpIndex: idx, AvgFRFShare: stats.Mean(shares)})
	}
	return out
}

// GatingRow reports the register power-gating extension for one
// benchmark: leakage when unallocated register rows are switched off, on
// top of the paper's partitioning.
type GatingRow struct {
	Benchmark string
	// Occupancy is the fraction of warp-register slots the resident
	// kernel allocates (regs/thread x resident warps / 2048).
	Occupancy float64
	// Leakage (mW) for the partitioned design with and without gating,
	// and the resulting savings vs the MRF@STV baseline.
	PartitionedMW float64
	GatedMW       float64
	SavingsPct    float64
	GatedSavings  float64
}

// RegisterGatingExtension models the paper's cited related-work direction
// (power-gating unallocated registers, as in the Warped Register File) on
// top of the partitioned design. Table I shows kernels allocate ~16 of 63
// registers on average, so most SRF rows can be gated.
func RegisterGatingExtension(r *Runner) []GatingRow {
	base := energy.LeakageMW(regfile.DesignMonolithicSTV)
	var rows []GatingRow
	for _, w := range workloads.All() {
		k := w.Kernels[0]
		warps := (k.ThreadsPerCTA + 31) / 32
		resident := 16
		if bySlots := 64 / warps; bySlots < resident {
			resident = bySlots
		}
		if byRegs := 2048 / (warps * k.Prog.NumRegs); byRegs < resident {
			resident = byRegs
		}
		occupancy := float64(resident*warps*k.Prog.NumRegs) / 2048
		if occupancy > 1 {
			occupancy = 1
		}
		part := energy.LeakageMW(regfile.DesignPartitioned)
		gated := energy.GatedLeakageMW(regfile.DesignPartitioned, occupancy)
		rows = append(rows, GatingRow{
			Benchmark:     w.Name,
			Occupancy:     occupancy,
			PartitionedMW: part,
			GatedMW:       gated,
			SavingsPct:    (1 - part/base) * 100,
			GatedSavings:  (1 - gated/base) * 100,
		})
	}
	return rows
}

// ProfilingTechniqueAblation compares the four deployable techniques
// end to end on the adaptive partitioned design.
func ProfilingTechniqueAblation(r *Runner) []TechniqueEnergyRow {
	techniques := []profile.Technique{
		profile.TechniqueStaticFirstN,
		profile.TechniqueCompiler,
		profile.TechniquePilot,
		profile.TechniqueHybrid,
	}
	rows := make([]TechniqueEnergyRow, 0, len(techniques))
	for _, tech := range techniques {
		cfg := r.designConfig("part-adaptive")
		cfg.Profiling = tech
		row := r.capturePoint(cfg)
		row.Technique = tech.String()
		rows = append(rows, row)
	}
	return rows
}
