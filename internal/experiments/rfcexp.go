package experiments

import (
	"fmt"

	"pilotrf/internal/design"
	"pilotrf/internal/energy"
	"pilotrf/internal/fincacti"
	"pilotrf/internal/finfet"
	"pilotrf/internal/regfile"
	"pilotrf/internal/sim"
	"pilotrf/internal/stats"
)

// Figure13Config is one scaling configuration of the RFC-vs-partitioned
// comparison: (schedulers/SM, RFC banks, active warps, MRF voltage).
type Figure13Config struct {
	Schedulers  int
	RFCBanks    int
	ActiveWarps int
	MRFVddSTV   bool // false = NTV (the fair-comparison default)
}

// Label renders the paper's "(s, banks, warps, region)" caption.
func (c Figure13Config) Label() string {
	region := "NTV"
	if c.MRFVddSTV {
		region = "STV"
	}
	return fmt.Sprintf("(%d,%d,%d,%s)", c.Schedulers, c.RFCBanks, c.ActiveWarps, region)
}

// Figure13Configs returns the paper's four scaling configurations.
func Figure13Configs() []Figure13Config {
	return []Figure13Config{
		{Schedulers: 1, RFCBanks: 8, ActiveWarps: 8},
		{Schedulers: 2, RFCBanks: 16, ActiveWarps: 16},
		{Schedulers: 4, RFCBanks: 24, ActiveWarps: 32},
		{Schedulers: 4, RFCBanks: 24, ActiveWarps: 32, MRFVddSTV: true},
	}
}

// Figure13Row is one configuration's outcome, averaged over the suite.
type Figure13Row struct {
	Config Figure13Config
	// RFCSizeKB is the cache capacity (grows with active warps).
	RFCSizeKB float64
	// Dynamic energy normalized to MRF@STV (lower is better).
	RFCEnergy         float64
	PartitionedEnergy float64
	// Execution time normalized to the MRF@STV baseline with the same
	// scheduler configuration.
	RFCSlowdown         float64
	PartitionedSlowdown float64
	// RFCHitRate is the suite-average read hit rate.
	RFCHitRate float64
}

// Figure13 reproduces Figure 13: how the RFC and the partitioned RF scale
// as the SM's issue width and active warp pool grow. The RFC's energy
// advantage erodes (hit rate falls, write/flush traffic grows) while the
// partitioned RF's savings are structural; with the backing MRF at STV
// the RFC barely saves anything.
func Figure13(r *Runner) []Figure13Row {
	var rows []Figure13Row
	for _, fc := range Figure13Configs() {
		rows = append(rows, figure13One(r, fc))
	}
	return rows
}

func figure13One(r *Runner, fc Figure13Config) Figure13Row {
	mrfVdd, region := finfet.NTV, "ntv"
	if fc.MRFVddSTV {
		mrfVdd, region = finfet.STV, "stv"
	}
	rfcArray := fincacti.RFCConfig(6, fc.ActiveWarps, fc.RFCBanks, 2, 1)

	// Baseline: MRF@STV with the standard (GTO) scheduler at this issue
	// configuration. Each design then runs with its natural scheduler:
	// the RFC requires the two-level scheduler (its active-pool
	// restriction is part of the RFC's cost), while the partitioned RF
	// keeps GTO.
	baseCfg := withScheme(r.scaledConfig(fc), "mrf-stv", design.Knobs{})
	// RFC in front of an MRF at the configured voltage, its active pool
	// resized from the scheme's fixed 32 warps to this configuration's.
	rfcCfg := withScheme(r.scaledConfig(fc), "rfc", design.Knobs{Voltage: region})
	rfcCfg.TLActiveWarps = fc.ActiveWarps
	// Partitioned+adaptive under the same issue configuration.
	partCfg := withScheme(r.scaledConfig(fc), "part-adaptive", design.Knobs{})

	base, rfcRuns, partRuns := r.runs(baseCfg), r.runs(rfcCfg), r.runs(partCfg)
	var rfcE, partE, rfcS, partS, hits []float64
	for i, rfcRun := range rfcRuns {
		rfcStats := rfcRun.RFCTotals()
		breakdown := energy.RFCDynamic(rfcStats, rfcArray, mrfVdd)
		rfcE = append(rfcE, breakdown.TotalPJ()/energy.BaselineDynamicPJ(rfcRun.TotalAccesses()))
		rfcS = append(rfcS, slowdown(rfcRun, base[i]))
		hits = append(hits, rfcStats.HitRate())

		partRun := partRuns[i]
		partE = append(partE, energy.DynamicPJ(regfile.DesignPartitionedAdaptive, partRun.PartAccesses())/
			energy.BaselineDynamicPJ(partRun.TotalAccesses()))
		partS = append(partS, slowdown(partRun, base[i]))
	}
	return Figure13Row{
		Config:              fc,
		RFCSizeKB:           rfcArray.SizeKB,
		RFCEnergy:           stats.Mean(rfcE),
		PartitionedEnergy:   stats.Mean(partE),
		RFCSlowdown:         stats.Geomean(rfcS),
		PartitionedSlowdown: stats.Geomean(partS),
		RFCHitRate:          stats.Mean(hits),
	}
}

// scaledConfig adapts the base config to a Figure 13 issue configuration.
func (r *Runner) scaledConfig(fc Figure13Config) sim.Config {
	cfg := r.baseConfig()
	cfg.Schedulers = fc.Schedulers
	cfg.TLActiveWarps = fc.ActiveWarps
	return cfg
}
