package experiments

import (
	"pilotrf/internal/energy"
	"pilotrf/internal/fincacti"
	"pilotrf/internal/regfile"
	"pilotrf/internal/sim"
	"pilotrf/internal/stats"
	"pilotrf/internal/workloads"
)

// Figure10Row is one benchmark's partitioned-RF access distribution.
type Figure10Row struct {
	Benchmark string
	// Shares of all RF accesses serviced by each structure.
	FRFHigh, FRFLow, SRF float64
	// LowShareOfFRF is the fraction of FRF accesses served in low-power
	// mode (the paper averages ~22%).
	LowShareOfFRF float64
}

// Figure10Result is the Figure 10 dataset plus suite averages.
type Figure10Result struct {
	Rows             []Figure10Row
	AvgFRF           float64 // paper: ~62% of accesses to the FRF
	AvgLowShareOfFRF float64 // paper: ~22% of FRF accesses in low mode
}

// Figure10 reproduces Figure 10: where accesses go under the adaptive
// partitioned design with hybrid profiling (4 FRF registers, 50-cycle
// epochs, threshold 85/400).
func Figure10(r *Runner) Figure10Result {
	var res Figure10Result
	var frfs, lows []float64
	for _, w := range workloads.All() {
		rs := r.hybridRun(w)
		parts := rs.PartAccesses()
		total := float64(parts[0] + parts[1] + parts[2] + parts[3])
		if total == 0 {
			continue
		}
		row := Figure10Row{
			Benchmark: w.Name,
			FRFHigh:   float64(parts[regfile.PartFRFHigh]) / total,
			FRFLow:    float64(parts[regfile.PartFRFLow]) / total,
			SRF:       float64(parts[regfile.PartSRF]) / total,
		}
		if frf := row.FRFHigh + row.FRFLow; frf > 0 {
			row.LowShareOfFRF = row.FRFLow / frf
		}
		res.Rows = append(res.Rows, row)
		frfs = append(frfs, row.FRFHigh+row.FRFLow)
		lows = append(lows, row.LowShareOfFRF)
	}
	res.AvgFRF = stats.Mean(frfs)
	res.AvgLowShareOfFRF = stats.Mean(lows)
	return res
}

// Figure11Row is one benchmark's RF dynamic energy normalized to MRF@STV.
type Figure11Row struct {
	Benchmark string
	// PartitionedOnly disables the adaptive FRF (all FRF accesses at
	// high power); PartitionedAdaptive is the paper's full design.
	PartitionedOnly     float64
	PartitionedAdaptive float64
	MonolithicNTV       float64
}

// Figure11Result is the Figure 11 dataset plus averages. The paper
// reports 54% savings for the partitioned+adaptive design and 47% for
// the always-NTV monolithic RF.
type Figure11Result struct {
	Rows []Figure11Row
	// Average savings (1 - normalized energy).
	AvgSavingsAdaptive float64
	AvgSavingsPartOnly float64
	AvgSavingsNTV      float64
}

// Figure11 reproduces Figure 11: RF dynamic energy of the proposed
// designs normalized to the MRF@STV baseline, computed by pricing each
// design's access mix with the Table IV energies.
func Figure11(r *Runner) Figure11Result {
	var res Figure11Result
	var sa, sp, sn []float64
	for _, w := range workloads.All() {
		adaptive := r.hybridRun(w)
		partCfg := r.designConfig("part")
		partOnly := r.run(w, partCfg, "part-hybrid-noadaptive")

		base := energy.BaselineDynamicPJ(adaptive.TotalAccesses())
		row := Figure11Row{
			Benchmark:           w.Name,
			PartitionedAdaptive: energy.DynamicPJ(regfile.DesignPartitionedAdaptive, adaptive.PartAccesses()) / base,
		}
		row.PartitionedOnly = energy.DynamicPJ(regfile.DesignPartitioned, partOnly.PartAccesses()) /
			energy.BaselineDynamicPJ(partOnly.TotalAccesses())
		// The always-NTV MRF services every access at the NTV energy;
		// its normalized energy is a per-access constant.
		var ntvParts [4]uint64
		ntvParts[regfile.PartMRF] = adaptive.TotalAccesses()
		row.MonolithicNTV = energy.DynamicPJ(regfile.DesignMonolithicNTV, ntvParts) / base
		res.Rows = append(res.Rows, row)
		sa = append(sa, 1-row.PartitionedAdaptive)
		sp = append(sp, 1-row.PartitionedOnly)
		sn = append(sn, 1-row.MonolithicNTV)
	}
	res.AvgSavingsAdaptive = stats.Mean(sa)
	res.AvgSavingsPartOnly = stats.Mean(sp)
	res.AvgSavingsNTV = stats.Mean(sn)
	return res
}

// LeakageReport is the Section V-B leakage analysis.
type LeakageReport struct {
	MRFLeakageMW         float64
	FRFLeakageMW         float64
	SRFLeakageMW         float64
	FRFShareOfMRF        float64 // paper: ~21.5%
	SRFShareOfMRF        float64 // paper: ~39.7%
	SavingsPct           float64 // paper: ~39%
	NTVMonolithicSavings float64
}

// Leakage reproduces the leakage-power analysis. It is workload
// independent (leakage is a structural property of the partitions).
func Leakage() LeakageReport {
	mrf := energy.LeakageMW(regfile.DesignMonolithicSTV)
	frf := fincacti.FRFConfig(fincacti.ModeNormal).LeakagePowerMW()
	srf := fincacti.SRFConfig().LeakagePowerMW()
	return LeakageReport{
		MRFLeakageMW:         mrf,
		FRFLeakageMW:         frf,
		SRFLeakageMW:         srf,
		FRFShareOfMRF:        frf / mrf,
		SRFShareOfMRF:        srf / mrf,
		SavingsPct:           (1 - (frf+srf)/mrf) * 100,
		NTVMonolithicSavings: (1 - energy.LeakageMW(regfile.DesignMonolithicNTV)/mrf) * 100,
	}
}

// EnergyBreakdown prices one benchmark under every design, including
// leakage integrated over each run's cycles (used by examples and the
// ablation benches).
type EnergyBreakdown struct {
	Benchmark string
	Reports   map[string]energy.Report
}

// Breakdown builds the full energy report for one benchmark.
func Breakdown(r *Runner, benchmark string) EnergyBreakdown {
	w, err := workloads.ByName(benchmark)
	if err != nil {
		panic(err)
	}
	adaptive := r.hybridRun(w)
	base := r.baselineRun(w)
	ntvCfg := r.designConfig("mrf-ntv")
	ntv := r.run(w, ntvCfg, "base-ntv-gto")

	mk := func(d regfile.Design, rs sim.RunStats) energy.Report {
		return energy.ForRun(d, rs.PartAccesses(), rs.TotalCycles())
	}
	return EnergyBreakdown{
		Benchmark: benchmark,
		Reports: map[string]energy.Report{
			"MRF@STV":              mk(regfile.DesignMonolithicSTV, base),
			"MRF@NTV":              mk(regfile.DesignMonolithicNTV, ntv),
			"Partitioned+Adaptive": mk(regfile.DesignPartitionedAdaptive, adaptive),
		},
	}
}
