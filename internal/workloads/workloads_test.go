package workloads

import (
	"reflect"
	"testing"

	"pilotrf/internal/profile"
	"pilotrf/internal/regfile"
	"pilotrf/internal/sim"
)

func TestAllSeventeenBenchmarks(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("have %d benchmarks, Table I lists 17", len(all))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate benchmark %q", w.Name)
		}
		seen[w.Name] = true
	}
}

// Table I geometry must match exactly: registers/thread and threads/CTA.
func TestTable1Geometry(t *testing.T) {
	want := map[string]struct{ regs, tpc int }{
		"BFS": {7, 256}, "btree": {15, 508}, "hotspot": {27, 256},
		"nw": {21, 16}, "stencil": {15, 1024}, "backprop": {13, 256},
		"sad": {29, 61}, "srad": {12, 256}, "MUM": {15, 256},
		"kmeans": {9, 256}, "lavaMD": {6, 128}, "mri-q": {12, 512},
		"NN": {10, 169}, "sgemm": {27, 128}, "CP": {12, 128},
		"LIB": {18, 64}, "WP": {8, 64},
	}
	for _, w := range All() {
		spec, ok := want[w.Name]
		if !ok {
			t.Errorf("unexpected benchmark %q", w.Name)
			continue
		}
		if w.Paper.RegsPerThread != spec.regs || w.Paper.ThreadsPerCTA != spec.tpc {
			t.Errorf("%s paper info = %d regs/%d tpc, want %d/%d",
				w.Name, w.Paper.RegsPerThread, w.Paper.ThreadsPerCTA, spec.regs, spec.tpc)
		}
		for _, k := range w.Kernels {
			if k.Prog.NumRegs != spec.regs {
				t.Errorf("%s kernel %s allocates %d regs, want %d", w.Name, k.Prog.Name, k.Prog.NumRegs, spec.regs)
			}
			if k.ThreadsPerCTA != spec.tpc {
				t.Errorf("%s kernel %s has %d threads/CTA, want %d", w.Name, k.Prog.Name, k.ThreadsPerCTA, spec.tpc)
			}
		}
	}
}

// The paper (Section III-B): "on average 16 registers were allocated for
// each workload" — which is why only a quarter of the 63 profiling
// counters are typically active.
func TestAverageRegisterAllocationNearSixteen(t *testing.T) {
	total := 0
	for _, w := range All() {
		total += w.Paper.RegsPerThread
	}
	avg := float64(total) / float64(len(All()))
	if avg < 14 || avg > 17 {
		t.Errorf("average registers/thread = %.1f, paper reports ~16", avg)
	}
}

func TestAllKernelsValidate(t *testing.T) {
	for _, w := range All() {
		if len(w.Kernels) == 0 {
			t.Errorf("%s has no kernels", w.Name)
		}
		for _, k := range w.Kernels {
			if err := k.Validate(); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
	}
}

func TestCategories(t *testing.T) {
	wantCat := map[string]Category{
		"BFS": Category1, "btree": Category1, "hotspot": Category1,
		"nw": Category1, "stencil": Category1, "backprop": Category1,
		"sad": Category1, "srad": Category1, "MUM": Category1,
		"kmeans": Category2, "lavaMD": Category2, "mri-q": Category2,
		"NN": Category2, "sgemm": Category2, "CP": Category2,
		"LIB": Category3, "WP": Category3,
	}
	for _, w := range All() {
		if w.Category != wantCat[w.Name] {
			t.Errorf("%s in category %d, want %d", w.Name, w.Category, wantCat[w.Name])
		}
	}
	if n := len(ByCategory(Category1)); n != 9 {
		t.Errorf("category 1 has %d workloads, want 9", n)
	}
	if n := len(ByCategory(Category3)); n != 2 {
		t.Errorf("category 3 has %d workloads, want 2", n)
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("sgemm")
	if err != nil || w.Name != "sgemm" {
		t.Errorf("ByName(sgemm) = %v, %v", w.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted unknown benchmark")
	}
}

// The suite is assembled once per process: All and ByName share its
// programs, which stay equal to a fresh assembly after the simulator has
// run them, while every call gets its own Kernels slices.
func TestSuiteAssembledOnce(t *testing.T) {
	sgemm := func(all []Workload) Workload {
		for _, w := range all {
			if w.Name == "sgemm" {
				return w
			}
		}
		t.Fatal("All has no sgemm")
		return Workload{}
	}
	a, err := ByName("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ByName("sgemm")
	c := sgemm(All())
	if a.Kernels[0].Prog != b.Kernels[0].Prog || a.Kernels[0].Prog != c.Kernels[0].Prog {
		t.Fatal("ByName and All assembled sgemm's program more than once")
	}

	run(t, a.Scale(0.05), quickCfg())
	fresh := assemble()
	for i, w := range All() {
		if !reflect.DeepEqual(w, fresh[i]) {
			t.Errorf("%s: the shared workload differs from a fresh assembly", w.Name)
		}
	}

	want := a.Kernels[0].NumCTAs
	a.Kernels[0].NumCTAs = want + 1
	c.Kernels[0].NumCTAs = want + 2
	if got, _ := ByName("sgemm"); got.Kernels[0].NumCTAs != want {
		t.Errorf("ByName after a caller's write: %d CTAs, want %d", got.Kernels[0].NumCTAs, want)
	}
	if got := sgemm(All()).Kernels[0].NumCTAs; got != want {
		t.Errorf("All after a caller's write: %d CTAs, want %d", got, want)
	}
}

func TestScale(t *testing.T) {
	w, _ := ByName("BFS")
	s := w.Scale(0.25)
	if s.Kernels[0].NumCTAs >= w.Kernels[0].NumCTAs {
		t.Error("Scale did not reduce CTA count")
	}
	if w.Kernels[0].NumCTAs != BFS().Kernels[0].NumCTAs {
		t.Error("Scale mutated the original workload")
	}
	tiny := w.Scale(0.0001)
	if tiny.Kernels[0].NumCTAs != 1 {
		t.Errorf("Scale floor = %d, want 1", tiny.Kernels[0].NumCTAs)
	}
}

// run executes a scaled-down workload on a 1-SM machine and returns stats.
func run(t *testing.T, w Workload, cfg sim.Config) sim.RunStats {
	t.Helper()
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	rs, err := g.RunKernels(w.Name, w.Kernels)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return rs
}

func quickCfg() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 1
	return cfg
}

func TestEveryWorkloadRuns(t *testing.T) {
	for _, w := range All() {
		w := w.Scale(0.2)
		rs := run(t, w, quickCfg())
		if rs.TotalCycles() <= 0 || rs.TotalAccesses() == 0 {
			t.Errorf("%s: empty run (%d cycles, %d accesses)", w.Name, rs.TotalCycles(), rs.TotalAccesses())
		}
	}
}

// Figure 2's core claim: per-kernel top-3/4/5 registers capture a large,
// increasing share of accesses (paper averages: 62%/72%/77%).
func TestRegisterAccessSkew(t *testing.T) {
	var s3, s4, s5 []float64
	for _, w := range All() {
		rs := run(t, w.Scale(0.2), quickCfg())
		t3, t4, t5 := rs.TopNShareByKernel(3), rs.TopNShareByKernel(4), rs.TopNShareByKernel(5)
		if !(t3 <= t4 && t4 <= t5) {
			t.Errorf("%s: top-N shares not monotone: %.2f %.2f %.2f", w.Name, t3, t4, t5)
		}
		if t3 < 0.30 {
			t.Errorf("%s: top-3 share %.2f too flat for the paper's skew", w.Name, t3)
		}
		s3, s4, s5 = append(s3, t3), append(s4, t4), append(s5, t5)
	}
	avg := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	a3, a4, a5 := avg(s3), avg(s4), avg(s5)
	if a3 < 0.50 || a3 > 0.75 {
		t.Errorf("average top-3 share = %.2f, paper reports 0.62", a3)
	}
	if a4 < 0.60 || a4 > 0.85 {
		t.Errorf("average top-4 share = %.2f, paper reports 0.72", a4)
	}
	if a5 < 0.65 || a5 > 0.90 {
		t.Errorf("average top-5 share = %.2f, paper reports 0.77", a5)
	}
}

// The backprop example from Section II: the two kernels have different
// hot sets, and in kernel 1 the top register is accessed several times
// more than R6.
func TestBackpropKernelsDiffer(t *testing.T) {
	rs := run(t, Backprop().Scale(0.3), quickCfg())
	if len(rs.Kernels) != 2 {
		t.Fatalf("backprop has %d kernels", len(rs.Kernels))
	}
	top1 := rs.Kernels[0].RegHist.TopN(3)
	top2 := rs.Kernels[1].RegHist.TopN(3)
	same := 0
	for _, a := range top1 {
		for _, b := range top2 {
			if a.Key == b.Key {
				same++
			}
		}
	}
	if same == 3 {
		t.Error("backprop kernels share an identical top-3 set; the paper shows disjoint hot sets")
	}
	// Kernel 1: R0 dominates R6 by a wide margin.
	h := rs.Kernels[0].RegHist
	if h.Count(0) < 4*h.Count(6) {
		t.Errorf("backprop k1: R0 (%d) not >> R6 (%d)", h.Count(0), h.Count(6))
	}
}

// sgemm's running example: static-first-4 capture is poor (~25% in the
// paper) while the true top-4 capture is much higher (~55%).
func TestSGEMMStaticFirstFourIsPoor(t *testing.T) {
	rs := run(t, SGEMM().Scale(0.3), quickCfg())
	h := rs.MergedRegHist()
	first4 := h.Share([]int{0, 1, 2, 3})
	top4 := rs.TopNShareByKernel(4)
	if first4 >= 0.40 {
		t.Errorf("sgemm first-four share = %.2f, should be poor (paper: 0.25)", first4)
	}
	if top4 < first4+0.20 {
		t.Errorf("sgemm top-4 (%.2f) should beat first-4 (%.2f) by a wide margin", top4, first4)
	}
}

// Category 2's defining property: the compiler's static top-4 capture is
// more than 10 points below the oracle top-4 capture.
func TestCategory2CompilerGap(t *testing.T) {
	for _, w := range ByCategory(Category2) {
		rs := run(t, w.Scale(0.2), quickCfg())
		var compilerShare, oracleShare float64
		var total uint64
		for ki, k := range w.Kernels {
			h := rs.Kernels[ki].RegHist
			total += h.Total()
			top := profile.CompilerTopN(k.Prog, 4)
			keys := make([]int, len(top))
			for i, r := range top {
				keys[i] = int(r)
			}
			compilerShare += h.Share(keys) * float64(h.Total())
			oracleShare += h.TopNShare(4) * float64(h.Total())
		}
		compilerShare /= float64(total)
		oracleShare /= float64(total)
		if oracleShare-compilerShare < 0.10 {
			t.Errorf("%s (cat 2): compiler capture %.2f not >10 points below oracle %.2f",
				w.Name, compilerShare, oracleShare)
		}
	}
}

// Category 1's defining property: the compiler's capture is within ~10
// points of the oracle.
func TestCategory1CompilerClose(t *testing.T) {
	for _, w := range ByCategory(Category1) {
		rs := run(t, w.Scale(0.2), quickCfg())
		for ki, k := range w.Kernels {
			h := rs.Kernels[ki].RegHist
			top := profile.CompilerTopN(k.Prog, 4)
			keys := make([]int, len(top))
			for i, r := range top {
				keys[i] = int(r)
			}
			gap := h.TopNShare(4) - h.Share(keys)
			if gap > 0.12 {
				t.Errorf("%s/%s (cat 1): compiler capture %.2f points below oracle (limit 0.12)",
					w.Name, k.Prog.Name, gap)
			}
		}
	}
}

// Category 3's defining property: the pilot warp spans most of the run.
// Grids are tuned for the 2-SM simulation default, so run at that size.
func TestCategory3PilotDominates(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.RF = regfile.DefaultConfig(regfile.DesignPartitioned)
	cfg.Profiling = profile.TechniquePilot
	for _, w := range ByCategory(Category3) {
		rs := run(t, w, cfg) // no scaling: pilot share depends on the wave structure
		if frac := rs.Kernels[0].PilotFraction; frac < 0.4 {
			t.Errorf("%s (cat 3): pilot fraction %.2f, want dominant (paper: %.0f%%)",
				w.Name, frac, w.Paper.PilotCTAPct)
		}
	}
}

// Category 1/2 workloads must have small pilot fractions (many waves).
func TestPilotFractionSmallForCat1(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.RF = regfile.DefaultConfig(regfile.DesignPartitioned)
	cfg.Profiling = profile.TechniquePilot
	for _, name := range []string{"BFS", "kmeans", "backprop"} {
		w, _ := ByName(name)
		rs := run(t, w, cfg)
		if frac := rs.Kernels[0].PilotFraction; frac > 0.25 {
			t.Errorf("%s: pilot fraction %.2f, want small", name, frac)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	w, _ := ByName("MUM")
	w = w.Scale(0.3)
	a := run(t, w, quickCfg())
	b := run(t, w, quickCfg())
	if a.TotalCycles() != b.TotalCycles() || a.TotalAccesses() != b.TotalAccesses() {
		t.Error("same-seed workload runs differ")
	}
}
