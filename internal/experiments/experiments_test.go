package experiments

import (
	"math"
	"sync"
	"testing"

	"pilotrf/internal/workloads"
)

// Tests share one runner (and therefore one simulation cache) at a
// reduced workload scale; experiments are deterministic, so sharing is
// safe and keeps the suite fast.
var (
	runnerOnce sync.Once
	testRun    *Runner
	waveOnce   sync.Once
	waveRun    *Runner
)

func testRunner() *Runner {
	runnerOnce.Do(func() { testRun = NewRunner(0.15, 1) })
	return testRun
}

// waveRunner preserves the designed CTA-wave structure (scale x SMs ratio
// = tuned default), which the pilot-timing-sensitive experiments need:
// scale 0.5 on 1 SM keeps waves identical to 1.0 on 2 SMs.
func waveRunner() *Runner {
	waveOnce.Do(func() { waveRun = NewRunner(0.5, 1) })
	return waveRun
}

func TestFigure1Endpoints(t *testing.T) {
	pts := Figure1()
	if len(pts) == 0 {
		t.Fatal("empty sweep")
	}
	var atNTV, atSTV float64
	for _, p := range pts {
		if math.Abs(p.Vdd-0.30) < 1e-9 {
			atNTV = p.DelayNS
		}
		if math.Abs(p.Vdd-0.45) < 1e-9 {
			atSTV = p.DelayNS
		}
	}
	if atNTV == 0 || atSTV == 0 {
		t.Fatal("sweep missing NTV/STV points")
	}
	if r := atNTV / atSTV; math.Abs(r-3) > 0.1 {
		t.Errorf("NTV:STV chain delay ratio = %.2f, want ~3", r)
	}
}

func TestTable3AndTable4(t *testing.T) {
	if rows := Table3(); len(rows) != 3 {
		t.Errorf("Table3 rows = %d", len(rows))
	}
	if rows := Table4(); len(rows) != 4 {
		t.Errorf("Table4 rows = %d", len(rows))
	}
}

func TestSRAMYieldStudy(t *testing.T) {
	rows := SRAMYieldStudy(5000, 7)
	if len(rows) != 8 {
		t.Fatalf("yield rows = %d, want 8", len(rows))
	}
	// Find 8T and 6T at NTV.
	var y8, y6 float64
	for _, r := range rows {
		if r.Vdd == 0.30 {
			switch r.Cell.String() {
			case "8T":
				y8 = r.Yield
			case "6T":
				y6 = r.Yield
			}
		}
	}
	if y8 <= y6 {
		t.Errorf("8T yield (%.3f) should beat 6T (%.3f) at NTV", y8, y6)
	}
}

func TestRFCPortScalingAnchors(t *testing.T) {
	rows := RFCPortScaling()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if math.Abs(rows[0].RelativeToMRF-0.37) > 0.01 {
		t.Errorf("(R2,W1) = %.3f, want 0.37", rows[0].RelativeToMRF)
	}
	if math.Abs(rows[2].RelativeToMRF-3.0) > 0.05 {
		t.Errorf("(R8,W4) = %.3f, want 3.0", rows[2].RelativeToMRF)
	}
	if r := BankedRFCEnergyRelative(); math.Abs(r-1.0) > 0.05 {
		t.Errorf("banked crossbar RFC = %.3f x MRF, want ~1.0", r)
	}
}

func TestSwapTableDelaysUnderCycleBudget(t *testing.T) {
	rows := SwapTableDelays()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Tech.String() == "7nm FinFET" && r.CycleFraction > 0.10 {
			t.Errorf("7nm swap table at %.1f%% of the cycle, want < 10%%", r.CycleFraction*100)
		}
	}
}

func TestVoltageSweepShape(t *testing.T) {
	pts := VoltageSweep()
	if len(pts) < 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].AccessEnergyPJ <= pts[i-1].AccessEnergyPJ {
			t.Error("access energy should grow with Vdd")
		}
		if pts[i].DelayRatio >= pts[i-1].DelayRatio {
			t.Error("delay should shrink with Vdd")
		}
	}
	// The paper's operating points must appear with their latencies.
	for _, p := range pts {
		if p.Vdd == 0.30 && p.AccessCycles != 3 {
			t.Errorf("NTV point has %d cycles, want 3", p.AccessCycles)
		}
		if p.Vdd == 0.45 && p.AccessCycles != 1 {
			t.Errorf("STV point has %d cycles, want 1", p.AccessCycles)
		}
	}
}

func TestAreaOverheadUnderTenPercent(t *testing.T) {
	a := Area()
	if a.OverheadPct <= 0 || a.OverheadPct >= 10 {
		t.Errorf("area overhead = %.1f%%, want (0, 10)", a.OverheadPct)
	}
	if math.Abs(a.BaselineMM2-0.2) > 0.005 || math.Abs(a.ProposedMM2-0.214) > 0.005 {
		t.Errorf("areas = %.3f / %.3f, want 0.200 / 0.214", a.BaselineMM2, a.ProposedMM2)
	}
}

func TestLeakageReport(t *testing.T) {
	l := Leakage()
	if math.Abs(l.SavingsPct-39) > 2 {
		t.Errorf("leakage savings = %.1f%%, paper reports 39%%", l.SavingsPct)
	}
	if math.Abs(l.FRFShareOfMRF-0.215) > 0.01 || math.Abs(l.SRFShareOfMRF-0.397) > 0.01 {
		t.Errorf("shares = %.3f / %.3f, want 0.215 / 0.397", l.FRFShareOfMRF, l.SRFShareOfMRF)
	}
}

func TestFigure2Averages(t *testing.T) {
	res := Figure2(testRunner())
	if len(res.Rows) != 17 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Avg3 < 0.50 || res.Avg3 > 0.75 {
		t.Errorf("avg top-3 = %.2f, paper: 0.62", res.Avg3)
	}
	if !(res.Avg3 < res.Avg4 && res.Avg4 < res.Avg5) {
		t.Error("averages not monotone")
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1(testRunner())
	if len(rows) != 17 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if r.MeasuredPilotPct <= 0 || r.MeasuredPilotPct > 100 {
			t.Errorf("%s pilot%% = %.2f out of range", r.Benchmark, r.MeasuredPilotPct)
		}
	}
	// The Category 3 workloads must dominate the pilot ranking, as in
	// the paper (LIB 60%, WP 75% vs a 3% geomean).
	for _, c3 := range []string{"LIB", "WP"} {
		if byName[c3].MeasuredPilotPct < byName["BFS"].MeasuredPilotPct*3 {
			t.Errorf("%s pilot%% (%.1f) should dwarf BFS (%.1f)",
				c3, byName[c3].MeasuredPilotPct, byName["BFS"].MeasuredPilotPct)
		}
	}
}

func TestFigure4CategoryShapes(t *testing.T) {
	rows := Figure4(waveRunner())
	if len(rows) != 17 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Optimal is installed from cycle zero with the true top set:
		// nothing should beat it by more than noise.
		for name, v := range map[string]float64{"compiler": r.Compiler, "pilot": r.Pilot, "hybrid": r.Hybrid} {
			if v > r.Optimal+0.05 {
				t.Errorf("%s: %s (%.2f) exceeds optimal (%.2f)", r.Benchmark, name, v, r.Optimal)
			}
		}
		switch r.Category {
		case workloads.Category2:
			if r.Pilot < r.Compiler+0.08 {
				t.Errorf("%s (cat2): pilot %.2f should clearly beat compiler %.2f", r.Benchmark, r.Pilot, r.Compiler)
			}
		case workloads.Category3:
			if r.Compiler < r.Pilot+0.08 {
				t.Errorf("%s (cat3): compiler %.2f should clearly beat pilot %.2f", r.Benchmark, r.Compiler, r.Pilot)
			}
		}
		// Hybrid must track the better of its two parents.
		best := math.Max(r.Compiler, r.Pilot)
		if r.Hybrid < best-0.10 {
			t.Errorf("%s: hybrid %.2f falls well below best parent %.2f", r.Benchmark, r.Hybrid, best)
		}
	}
}

func TestStaticFirstNIsWorseOnSgemm(t *testing.T) {
	r := waveRunner()
	static := StaticFirstNShare(r, "sgemm")
	rows := Figure4(r)
	var opt float64
	for _, row := range rows {
		if row.Benchmark == "sgemm" {
			opt = row.Optimal
		}
	}
	if static >= opt-0.15 {
		t.Errorf("sgemm static-first-4 = %.2f vs optimal %.2f; paper shows a ~30-point gap", static, opt)
	}
}

func TestFigure10Distribution(t *testing.T) {
	res := Figure10(testRunner())
	if len(res.Rows) != 17 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.AvgFRF < 0.5 || res.AvgFRF > 0.95 {
		t.Errorf("avg FRF share = %.2f, paper: ~0.62", res.AvgFRF)
	}
	if res.AvgLowShareOfFRF <= 0 || res.AvgLowShareOfFRF > 0.6 {
		t.Errorf("avg low-mode share = %.2f, paper: ~0.22", res.AvgLowShareOfFRF)
	}
	for _, row := range res.Rows {
		if s := row.FRFHigh + row.FRFLow + row.SRF; math.Abs(s-1) > 1e-9 {
			t.Errorf("%s: shares sum to %.3f", row.Benchmark, s)
		}
	}
}

func TestFigure11Savings(t *testing.T) {
	res := Figure11(testRunner())
	if len(res.Rows) != 17 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.AvgSavingsAdaptive < 0.35 || res.AvgSavingsAdaptive > 0.70 {
		t.Errorf("adaptive savings = %.2f, paper: 0.54", res.AvgSavingsAdaptive)
	}
	if res.AvgSavingsAdaptive <= res.AvgSavingsPartOnly {
		t.Error("adaptive FRF should add savings over the plain partition")
	}
	if res.AvgSavingsAdaptive <= res.AvgSavingsNTV {
		t.Errorf("adaptive (%.3f) should beat always-NTV (%.3f), as in the paper (54%% vs 47%%)",
			res.AvgSavingsAdaptive, res.AvgSavingsNTV)
	}
}

func TestFigure12Overheads(t *testing.T) {
	// Performance overheads need the designed wave structure: with too
	// few CTA waves there is not enough warp parallelism to hide the
	// SRF latency, inflating every overhead.
	res := Figure12(waveRunner())
	if len(res.Rows) != 17 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.GeoHybridGTO > 1.04 {
		t.Errorf("hybrid GTO overhead = %.3f, paper: < 2%%", res.GeoHybridGTO)
	}
	if res.GeoNTVGTO <= res.GeoHybridGTO {
		t.Error("MRF@NTV should be slower than the partitioned design")
	}
	if res.GeoNTVGTO < 1.02 || res.GeoNTVGTO > 1.25 {
		t.Errorf("NTV overhead = %.3f, paper: ~7%%", res.GeoNTVGTO)
	}
	if res.GeoCompilerGTO < res.GeoHybridGTO-0.005 {
		t.Errorf("compiler profiling (%.3f) should not beat hybrid (%.3f)", res.GeoCompilerGTO, res.GeoHybridGTO)
	}
	// "Consistent across schedulers": the LRR variant must also stay a
	// small overhead relative to its own baseline.
	if res.GeoHybridLRR > 1.08 {
		t.Errorf("hybrid under LRR = %.3f, want a consistent small overhead", res.GeoHybridLRR)
	}
}

func TestSRFLatencySensitivity(t *testing.T) {
	pts := SRFLatencySensitivity(testRunner())
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if !(pts[0].GeoSlowdown <= pts[1].GeoSlowdown && pts[1].GeoSlowdown <= pts[2].GeoSlowdown) {
		t.Errorf("slowdown not monotone in SRF latency: %+v", pts)
	}
	// 5-cycle SRF stays a modest overhead (paper: +2.4%).
	if pts[2].GeoSlowdown > 1.10 {
		t.Errorf("5-cycle SRF slowdown = %.3f, want modest", pts[2].GeoSlowdown)
	}
}

func TestEpochSensitivitySmallImpact(t *testing.T) {
	pts := EpochSensitivity(testRunner())
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	var lo, hi float64 = math.Inf(1), 0
	for _, p := range pts {
		lo = math.Min(lo, p.GeoSlowdown)
		hi = math.Max(hi, p.GeoSlowdown)
	}
	if hi-lo > 0.02 {
		t.Errorf("epoch length swings performance by %.3f, paper says the impact is small", hi-lo)
	}
}

func TestThresholdSweepTradeoff(t *testing.T) {
	pts := ThresholdSweep(testRunner())
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Higher thresholds put the FRF in low mode more often.
	if !(pts[0].AvgLowShare <= pts[3].AvgLowShare) {
		t.Errorf("low-mode share not increasing with threshold: %+v", pts)
	}
	// At the paper's threshold (85) the extra overhead over the lowest
	// threshold is small (< 0.5% in the paper; a little more at this
	// reduced test scale).
	if pts[1].GeoSlowdown-pts[0].GeoSlowdown > 0.02 {
		t.Errorf("threshold-85 costs %.3f over threshold-40", pts[1].GeoSlowdown-pts[0].GeoSlowdown)
	}
}

// The paper reports < 1% for the extra swap-table cycle; this pipeline
// model is more latency-sensitive than GPGPU-Sim (no result forwarding
// around the writeback stage, and the +1 cycle applies to reads and
// writebacks alike), so the bound here is looser. The divergence is
// recorded in EXPERIMENTS.md.
func TestSwapTablePenaltySmall(t *testing.T) {
	if p := SwapTablePenalty(testRunner()); p > 1.09 {
		t.Errorf("extra swap-table cycle costs %.3f, want bounded", p)
	}
}

func TestCodeDynamicsSimilarity(t *testing.T) {
	rows := CodeDynamics(testRunner())
	if len(rows) != 17 {
		t.Fatalf("rows = %d", len(rows))
	}
	stable := 0
	for _, r := range rows {
		if r.Top4SetStable {
			stable++
		}
		if r.MeanRelDeviation > 0.25 {
			t.Errorf("%s: per-warp deviation %.2f too large", r.Benchmark, r.MeanRelDeviation)
		}
	}
	if stable < 12 {
		t.Errorf("top-4 set stable across warps for only %d/17 benchmarks", stable)
	}
}

func TestFigure13Shape(t *testing.T) {
	rows := Figure13(testRunner())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// RFC size grows with active warps: 6, 12, 24, 24 KB.
	wantKB := []float64{6, 12, 24, 24}
	for i, r := range rows {
		if r.RFCSizeKB != wantKB[i] {
			t.Errorf("config %s: RFC size %.0f KB, want %.0f", r.Config.Label(), r.RFCSizeKB, wantKB[i])
		}
		if r.PartitionedEnergy >= 1 || r.PartitionedEnergy <= 0 {
			t.Errorf("config %s: partitioned energy %.2f not in (0,1)", r.Config.Label(), r.PartitionedEnergy)
		}
	}
	// The partitioned design's savings are stable across configurations...
	spread := 0.0
	for _, r := range rows {
		spread = math.Max(spread, math.Abs(r.PartitionedEnergy-rows[0].PartitionedEnergy))
	}
	if spread > 0.10 {
		t.Errorf("partitioned energy varies by %.2f across configs; should be structural", spread)
	}
	// ...while the RFC's erode as warps scale (config 0 -> 2), and with
	// an STV MRF the RFC saves much less than the partitioned design.
	if rows[2].RFCEnergy <= rows[0].RFCEnergy {
		t.Errorf("RFC energy should grow with active warps: %.2f -> %.2f", rows[0].RFCEnergy, rows[2].RFCEnergy)
	}
	last := rows[3]
	if last.RFCEnergy <= last.PartitionedEnergy {
		t.Errorf("with an STV MRF the RFC (%.2f) should save less than partitioned (%.2f)",
			last.RFCEnergy, last.PartitionedEnergy)
	}
	// Performance: the RFC is tied to the two-level scheduler's small
	// active pool, so it carries a real overhead that shrinks as the
	// pool grows (the paper's 9.5% -> 3.8% -> 3.3% trend), and at the
	// 8-warp pool it clearly exceeds the partitioned design's.
	if rows[0].RFCSlowdown <= rows[0].PartitionedSlowdown {
		t.Errorf("8-warp config: RFC slowdown %.3f should exceed partitioned %.3f",
			rows[0].RFCSlowdown, rows[0].PartitionedSlowdown)
	}
	for _, r := range rows {
		if r.RFCSlowdown <= 1.0 {
			t.Errorf("config %s: RFC slowdown %.3f, want an overhead", r.Config.Label(), r.RFCSlowdown)
		}
	}
	if !(rows[0].RFCSlowdown > rows[1].RFCSlowdown && rows[1].RFCSlowdown > rows[2].RFCSlowdown) {
		t.Errorf("RFC slowdown should shrink as the active pool grows: %.3f %.3f %.3f",
			rows[0].RFCSlowdown, rows[1].RFCSlowdown, rows[2].RFCSlowdown)
	}
	// Hit rates are bounded the way the paper reports (<45% at 32 warps
	// in their setup; ours must at least not be perfect).
	if rows[2].RFCHitRate > 0.9 {
		t.Errorf("32-warp RFC hit rate = %.2f, suspiciously high", rows[2].RFCHitRate)
	}
}

func TestRunnerCaching(t *testing.T) {
	r := NewRunner(0.05, 1)
	w, _ := workloads.ByName("WP")
	a := r.run(w, r.baseConfig())
	b := r.run(w, r.baseConfig())
	if a.TotalCycles() != b.TotalCycles() {
		t.Error("cache returned different results")
	}
	if len(r.cache) == 0 {
		t.Error("cache unused")
	}
}

func TestNewRunnerDefaults(t *testing.T) {
	r := NewRunner(0, 0)
	if r.Scale != 1 || r.SMs != 2 {
		t.Errorf("defaults = %g/%d, want 1/2", r.Scale, r.SMs)
	}
}
