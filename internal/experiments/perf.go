package experiments

import (
	"strconv"

	"pilotrf/internal/profile"
	"pilotrf/internal/regfile"
	"pilotrf/internal/sim"
	"pilotrf/internal/stats"
	"pilotrf/internal/workloads"
)

// Figure12Row is one benchmark's normalized execution time (cycles over
// the MRF@STV baseline using the same scheduler; > 1 = slowdown).
type Figure12Row struct {
	Benchmark string
	// GTO scheduler variants.
	PartitionedHybridGTO   float64
	PartitionedCompilerGTO float64
	MonolithicNTVGTO       float64
	// TL and LRR scheduler variants of the proposed design (the paper:
	// "our technique shows a consistent performance across all the
	// schedulers"), each normalized to its own-scheduler baseline.
	PartitionedHybridTL  float64
	PartitionedHybridLRR float64
}

// Figure12Result is the dataset plus geomean overheads. The paper: the
// proposed design costs < 2% (GTO), MRF@NTV costs 7.1%, and hybrid beats
// compiler-only profiling by ~2%.
type Figure12Result struct {
	Rows []Figure12Row
	// Geomean normalized execution times.
	GeoHybridGTO   float64
	GeoCompilerGTO float64
	GeoNTVGTO      float64
	GeoHybridTL    float64
	GeoHybridLRR   float64
}

// Figure12 reproduces Figure 12.
func Figure12(r *Runner) Figure12Result {
	var res Figure12Result
	var hg, cg, ng, ht, hl []float64
	for _, w := range workloads.All() {
		baseGTO := float64(r.baselineRun(w).TotalCycles())

		baseTLCfg := r.designConfig("mrf-stv")
		baseTLCfg.Policy = sim.PolicyTL
		baseTL := float64(r.run(w, baseTLCfg, "base-stv-tl").TotalCycles())

		baseLRRCfg := r.designConfig("mrf-stv")
		baseLRRCfg.Policy = sim.PolicyLRR
		baseLRR := float64(r.run(w, baseLRRCfg, "base-stv-lrr").TotalCycles())

		hybrid := float64(r.hybridRun(w).TotalCycles())

		compCfg := r.designConfig("part-adaptive")
		compCfg.Profiling = profile.TechniqueCompiler
		comp := float64(r.run(w, compCfg, "part-adaptive-compiler").TotalCycles())

		ntvCfg := r.designConfig("mrf-ntv")
		ntv := float64(r.run(w, ntvCfg, "base-ntv-gto").TotalCycles())

		tlCfg := r.designConfig("part-adaptive")
		tlCfg.Policy = sim.PolicyTL
		tl := float64(r.run(w, tlCfg, "part-adaptive-hybrid-tl").TotalCycles())

		lrrCfg := r.designConfig("part-adaptive")
		lrrCfg.Policy = sim.PolicyLRR
		lrr := float64(r.run(w, lrrCfg, "part-adaptive-hybrid-lrr").TotalCycles())

		row := Figure12Row{
			Benchmark:              w.Name,
			PartitionedHybridGTO:   hybrid / baseGTO,
			PartitionedCompilerGTO: comp / baseGTO,
			MonolithicNTVGTO:       ntv / baseGTO,
			PartitionedHybridTL:    tl / baseTL,
			PartitionedHybridLRR:   lrr / baseLRR,
		}
		res.Rows = append(res.Rows, row)
		hg = append(hg, row.PartitionedHybridGTO)
		cg = append(cg, row.PartitionedCompilerGTO)
		ng = append(ng, row.MonolithicNTVGTO)
		ht = append(ht, row.PartitionedHybridTL)
		hl = append(hl, row.PartitionedHybridLRR)
	}
	res.GeoHybridGTO = stats.Geomean(hg)
	res.GeoCompilerGTO = stats.Geomean(cg)
	res.GeoNTVGTO = stats.Geomean(ng)
	res.GeoHybridTL = stats.Geomean(ht)
	res.GeoHybridLRR = stats.Geomean(hl)
	return res
}

// LatencyPoint is one SRF-latency setting's average slowdown.
type LatencyPoint struct {
	SRFCycles   int
	GeoSlowdown float64 // normalized execution time (1.0 = baseline)
}

// SRFLatencySensitivity reproduces the Section V-C study: the proposed
// design with 3/4/5-cycle SRF accesses (paper: +0.5% at 4, +2.4% at 5
// relative to the 3-cycle design).
func SRFLatencySensitivity(r *Runner) []LatencyPoint {
	var out []LatencyPoint
	for _, srf := range []int{3, 4, 5} {
		var ratios []float64
		for _, w := range workloads.All() {
			cfg := r.designConfig("part-adaptive")
			cfg.RF.Lat.SRF = srf
			key := "part-srf-" + itoa(srf)
			cycles := float64(r.run(w, cfg, key).TotalCycles())
			base := float64(r.baselineRun(w).TotalCycles())
			ratios = append(ratios, cycles/base)
		}
		out = append(out, LatencyPoint{SRFCycles: srf, GeoSlowdown: stats.Geomean(ratios)})
	}
	return out
}

// EpochPoint is one epoch-length setting of the adaptive FRF controller.
type EpochPoint struct {
	EpochCycles int
	GeoSlowdown float64
	AvgLowShare float64 // fraction of FRF accesses in low mode
}

// EpochSensitivity reproduces the Section V-C epoch sweep: the threshold
// is held at the same 20% ratio across lengths; performance is largely
// insensitive.
func EpochSensitivity(r *Runner) []EpochPoint {
	var out []EpochPoint
	for _, epoch := range []int{25, 50, 100, 200} {
		var ratios, lows []float64
		for _, w := range workloads.All() {
			cfg := r.designConfig("part-adaptive")
			cfg.RF.Adaptive.EpochCycles = epoch
			cfg.RF.Adaptive = cfg.RF.Adaptive.WithThresholdRatio(0.2)
			key := "part-epoch-" + itoa(epoch)
			rs := r.run(w, cfg, key)
			base := float64(r.baselineRun(w).TotalCycles())
			ratios = append(ratios, float64(rs.TotalCycles())/base)
			parts := rs.PartAccesses()
			if frf := parts[regfile.PartFRFHigh] + parts[regfile.PartFRFLow]; frf > 0 {
				lows = append(lows, float64(parts[regfile.PartFRFLow])/float64(frf))
			}
		}
		out = append(out, EpochPoint{
			EpochCycles: epoch,
			GeoSlowdown: stats.Geomean(ratios),
			AvgLowShare: stats.Mean(lows),
		})
	}
	return out
}

// ThresholdPoint is one issue-count threshold of the phase detector.
type ThresholdPoint struct {
	Threshold   int
	GeoSlowdown float64
	AvgLowShare float64
}

// ThresholdSweep reproduces the Section V-B design-space exploration of
// the low-compute threshold (the paper settles on 85 of 400: < 0.5%
// overhead with 22% of FRF accesses in low mode).
func ThresholdSweep(r *Runner) []ThresholdPoint {
	var out []ThresholdPoint
	for _, th := range []int{40, 85, 160, 240} {
		var ratios, lows []float64
		for _, w := range workloads.All() {
			cfg := r.designConfig("part-adaptive")
			cfg.RF.Adaptive.Threshold = th
			key := "part-th-" + itoa(th)
			rs := r.run(w, cfg, key)
			base := float64(r.baselineRun(w).TotalCycles())
			ratios = append(ratios, float64(rs.TotalCycles())/base)
			parts := rs.PartAccesses()
			if frf := parts[regfile.PartFRFHigh] + parts[regfile.PartFRFLow]; frf > 0 {
				lows = append(lows, float64(parts[regfile.PartFRFLow])/float64(frf))
			}
		}
		out = append(out, ThresholdPoint{
			Threshold:   th,
			GeoSlowdown: stats.Geomean(ratios),
			AvgLowShare: stats.Mean(lows),
		})
	}
	return out
}

// SwapTablePenalty measures the conservative variant from Section III-B:
// the swapping table lookup costs one extra cycle on every partitioned RF
// access. The paper reports < 1% overhead versus the integrated design.
func SwapTablePenalty(r *Runner) float64 {
	var ratios []float64
	for _, w := range workloads.All() {
		cfg := r.designConfig("part-adaptive")
		cfg.RF.Lat.FRFHigh++
		cfg.RF.Lat.FRFLow++
		cfg.RF.Lat.SRF++
		slow := float64(r.run(w, cfg, "part-swap-extra").TotalCycles())
		fast := float64(r.hybridRun(w).TotalCycles())
		ratios = append(ratios, slow/fast)
	}
	return stats.Geomean(ratios)
}

func itoa(n int) string { return strconv.Itoa(n) }
