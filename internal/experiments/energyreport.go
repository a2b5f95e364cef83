package experiments

import (
	"fmt"
	"strings"

	"pilotrf/internal/energy"
	"pilotrf/internal/profile"
	"pilotrf/internal/regfile"
	"pilotrf/internal/sim"
	"pilotrf/internal/workloads"
)

// EnergyAuditCounts summarizes one run's swap-decision audit log by
// placement reason.
type EnergyAuditCounts struct {
	StaticDefault     int
	CompilerSeed      int
	PilotMeasured     int
	HybridReplacement int
}

// EnergyReportRow is one benchmark's ledger-attributed energy breakdown
// under the paper design point (adaptive partitioned RF, hybrid
// profiling), cross-checked against the aggregate energy model.
type EnergyReportRow struct {
	Benchmark string
	// DynamicByPartPJ is dynamic energy charged per partition, in
	// regfile partition order (MRF, FRF_high, FRF_low, SRF).
	DynamicByPartPJ [4]float64
	DynamicPJ       float64
	LeakagePJ       float64
	// BaselinePJ is the MRF@STV cost of the same access count.
	BaselinePJ float64
	// SavingsPct is the dynamic saving versus BaselinePJ, in percent.
	SavingsPct float64
	// Epochs and HeatCells count the ledger's attribution records.
	Epochs    int
	HeatCells int
	// Conserved reports whether the streamed ledger reproduced the
	// aggregate dynamic and leakage figures bit-exactly.
	Conserved bool
	Audit     EnergyAuditCounts
}

// EnergyReport runs every Table I benchmark with the energy ledger and
// the swap audit log attached and returns the per-benchmark attribution
// rows. Runs are independent of the Runner cache (the ledger must
// observe its own simulation), but use the Runner's scale and SM count.
func EnergyReport(r *Runner) []EnergyReportRow {
	rows := make([]EnergyReportRow, 0, len(workloads.All()))
	for _, w := range workloads.All() {
		cfg := r.designConfig("part-adaptive")
		cfg.Profiling = profile.TechniqueHybrid
		led := energy.NewLedger(cfg.RF.Design, 0)
		audit := &profile.AuditLog{}
		cfg.Energy = led
		cfg.Audit = audit
		g, err := sim.New(cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		rs, err := g.RunKernels(w.Name, w.Scale(r.Scale).Kernels)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", w.Name, err))
		}
		row := EnergyReportRow{
			Benchmark:       w.Name,
			DynamicByPartPJ: led.DynamicByPartitionPJ(),
			DynamicPJ:       led.DynamicPJ(),
			LeakagePJ:       led.LeakagePJ(),
			BaselinePJ:      energy.BaselineDynamicPJ(rs.TotalAccesses()),
			Epochs:          len(led.Epochs()),
			HeatCells:       len(led.HeatCells()),
			Conserved:       led.CheckConservation(rs.PartAccesses(), rs.TotalCycles()) == nil,
			Audit: EnergyAuditCounts{
				StaticDefault:     audit.CountReason(profile.PlaceStaticDefault),
				CompilerSeed:      audit.CountReason(profile.PlaceCompilerSeed),
				PilotMeasured:     audit.CountReason(profile.PlacePilotMeasured),
				HybridReplacement: audit.CountReason(profile.PlaceHybridReplacement),
			},
		}
		row.SavingsPct = energy.Savings(row.DynamicPJ, row.BaselinePJ) * 100
		rows = append(rows, row)
	}
	return rows
}

// EnergyReportText renders the energy report as an aligned table with a
// conservation summary line.
func EnergyReportText(rows []EnergyReportRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-10s %10s %10s %10s %10s %10s %7s %6s %6s  %s\n",
		"bench", "frf_hi pJ", "frf_lo pJ", "srf pJ", "dyn pJ", "leak pJ",
		"save%", "epochs", "cells", "placements(seed/pilot/repl)")
	conserved := 0
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %10.0f %10.0f %10.0f %10.0f %10.0f %6.1f%% %6d %6d  %d/%d/%d\n",
			r.Benchmark,
			r.DynamicByPartPJ[regfile.PartFRFHigh], r.DynamicByPartPJ[regfile.PartFRFLow],
			r.DynamicByPartPJ[regfile.PartSRF], r.DynamicPJ, r.LeakagePJ, r.SavingsPct,
			r.Epochs, r.HeatCells,
			r.Audit.CompilerSeed, r.Audit.PilotMeasured, r.Audit.HybridReplacement)
		if r.Conserved {
			conserved++
		}
	}
	fmt.Fprintf(&b, "  ledger conservation: %d/%d benchmarks bit-exact\n", conserved, len(rows))
	return b.String()
}
