package experiments

import (
	"pilotrf/internal/profile"
	"pilotrf/internal/regfile"
	"pilotrf/internal/sim"
	"pilotrf/internal/stats"
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
	withPolicy := func(name string, p sim.Policy) sim.Config {
		cfg := r.designConfig(name)
		cfg.Policy = p
		return cfg
	}
	compCfg := r.designConfig("part-adaptive")
	compCfg.Profiling = profile.TechniqueCompiler
	baseGTO := r.baselineRuns()
	baseTL, baseLRR := r.runs(withPolicy("mrf-stv", sim.PolicyTL)), r.runs(withPolicy("mrf-stv", sim.PolicyLRR))
	hybrid, comp, ntv := r.runs(r.hybridConfig()), r.runs(compCfg), r.runs(r.designConfig("mrf-ntv"))
	tl, lrr := r.runs(withPolicy("part-adaptive", sim.PolicyTL)), r.runs(withPolicy("part-adaptive", sim.PolicyLRR))

	var res Figure12Result
	var hg, cg, ng, ht, hl []float64
	for i, w := range suite() {
		row := Figure12Row{
			Benchmark:              w.Name,
			PartitionedHybridGTO:   slowdown(hybrid[i], baseGTO[i]),
			PartitionedCompilerGTO: slowdown(comp[i], baseGTO[i]),
			MonolithicNTVGTO:       slowdown(ntv[i], baseGTO[i]),
			PartitionedHybridTL:    slowdown(tl[i], baseTL[i]),
			PartitionedHybridLRR:   slowdown(lrr[i], baseLRR[i]),
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
	base := r.baselineRuns()
	var out []LatencyPoint
	for _, srf := range []int{3, 4, 5} {
		cfg := r.designConfig("part-adaptive")
		cfg.RF.Lat.SRF = srf
		var ratios []float64
		for i, rs := range r.runs(cfg) {
			ratios = append(ratios, slowdown(rs, base[i]))
		}
		out = append(out, LatencyPoint{SRFCycles: srf, GeoSlowdown: stats.Geomean(ratios)})
	}
	return out
}

// adaptivePoint runs cfg over the workloads and returns the geomean
// slowdown and the mean share of FRF accesses served in low-power mode.
func (r *Runner) adaptivePoint(cfg sim.Config) (geoSlowdown, avgLowShare float64) {
	base := r.baselineRuns()
	var ratios, lows []float64
	for i, rs := range r.runs(cfg) {
		ratios = append(ratios, slowdown(rs, base[i]))
		parts := rs.PartAccesses()
		if frf := parts[regfile.PartFRFHigh] + parts[regfile.PartFRFLow]; frf > 0 {
			lows = append(lows, float64(parts[regfile.PartFRFLow])/float64(frf))
		}
	}
	return stats.Geomean(ratios), stats.Mean(lows)
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
		cfg := r.designConfig("part-adaptive")
		cfg.RF.Adaptive.EpochCycles = epoch
		cfg.RF.Adaptive = cfg.RF.Adaptive.WithThresholdRatio(0.2)
		p := EpochPoint{EpochCycles: epoch}
		p.GeoSlowdown, p.AvgLowShare = r.adaptivePoint(cfg)
		out = append(out, p)
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
		cfg := r.designConfig("part-adaptive")
		cfg.RF.Adaptive.Threshold = th
		p := ThresholdPoint{Threshold: th}
		p.GeoSlowdown, p.AvgLowShare = r.adaptivePoint(cfg)
		out = append(out, p)
	}
	return out
}

// SwapTablePenalty measures the conservative variant from Section III-B:
// the swapping table lookup costs one extra cycle on every partitioned RF
// access. The paper reports < 1% overhead versus the integrated design.
func SwapTablePenalty(r *Runner) float64 {
	cfg := r.designConfig("part-adaptive")
	cfg.RF.Lat.FRFHigh++
	cfg.RF.Lat.FRFLow++
	cfg.RF.Lat.SRF++
	fast := r.runs(r.hybridConfig())
	var ratios []float64
	for i, slow := range r.runs(cfg) {
		ratios = append(ratios, slowdown(slow, fast[i]))
	}
	return stats.Geomean(ratios)
}
