package sim

import (
	"fmt"
	"strings"
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/kernel"
	"pilotrf/internal/stats"
	"pilotrf/internal/workloads"
)

// checkStallInvariant asserts the attribution identity: every observed
// SM-cycle is either busy or charged to exactly one stall cause.
func checkStallInvariant(t *testing.T, label string, ks KernelStats) {
	t.Helper()
	if ks.SMCycles == 0 {
		t.Errorf("%s: no SM-cycles observed", label)
	}
	if got, want := ks.StallBreakdown.Total(), ks.StallCycles(); got != want {
		t.Errorf("%s: stall breakdown sums to %d, want %d (SMCycles=%d busy=%d)\n%s",
			label, got, want, ks.SMCycles, ks.BusyCycles, ks.StallBreakdown.Table())
	}
	if ks.BusyCycles+ks.StallCycles() != ks.SMCycles {
		t.Errorf("%s: busy %d + stalls %d != SM-cycles %d",
			label, ks.BusyCycles, ks.StallCycles(), ks.SMCycles)
	}
}

func TestStallBreakdownSumsAcrossDesignsAndPolicies(t *testing.T) {
	k := tracedKernel(t)
	for _, sch := range design.All() {
		for _, pol := range []Policy{PolicyGTO, PolicyLRR, PolicyTL, PolicyFetchGroup} {
			cfg, err := testConfig().WithScheme(sch, sch.DefaultKnobs())
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = pol
			cfg.Stalls = true
			ks := mustRun(t, cfg, k)
			checkStallInvariant(t, sch.Name()+"/"+pol.String(), ks)
		}
	}
}

// TestStallBreakdownSumsOnAllWorkloads is the property test over the
// tier-1 workload suite: for every benchmark (scaled down for test
// speed), the attribution must account for every stall cycle exactly.
func TestStallBreakdownSumsOnAllWorkloads(t *testing.T) {
	cfg := schemeConfig(t, "part-adaptive")
	cfg.Stalls = true
	for _, w := range workloads.All() {
		w = w.Scale(0.05)
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := g.RunKernels(w.Name, w.Kernels)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, ks := range rs.Kernels {
			checkStallInvariant(t, w.Name+"/"+ks.Name, ks)
		}
		bd, busy, smCycles := rs.StallTotals()
		if bd.Total() != smCycles-busy {
			t.Errorf("%s: run-level stall totals %d != %d", w.Name, bd.Total(), smCycles-busy)
		}
	}
}

func TestStallBreakdownZeroWhenDisabled(t *testing.T) {
	ks := mustRun(t, testConfig(), tracedKernel(t))
	if ks.SMCycles != 0 || ks.BusyCycles != 0 || ks.StallBreakdown.Total() != 0 {
		t.Errorf("telemetry counters populated while disabled: SMCycles=%d busy=%d stalls=%d",
			ks.SMCycles, ks.BusyCycles, ks.StallBreakdown.Total())
	}
}

// TestTelemetryDoesNotPerturbTiming is the acceptance gate: enabling
// stall attribution and metrics sampling must leave simulated cycle
// counts (and access counts) bit-identical on every design.
func TestTelemetryDoesNotPerturbTiming(t *testing.T) {
	k := tracedKernel(t)
	for _, sch := range design.All() {
		cfg, err := testConfig().WithScheme(sch, sch.DefaultKnobs())
		if err != nil {
			t.Fatal(err)
		}
		plain := mustRun(t, cfg, k)
		cfg.Stalls = true
		cfg.Metrics = NewMetricsRecorder(0)
		instrumented := mustRun(t, cfg, k)
		if plain.Cycles != instrumented.Cycles {
			t.Errorf("%s: telemetry changed cycles %d -> %d", sch.Name(), plain.Cycles, instrumented.Cycles)
		}
		if plain.RegReads != instrumented.RegReads || plain.RegWrites != instrumented.RegWrites {
			t.Errorf("%s: telemetry changed access counts", sch.Name())
		}
		if plain.PartAccesses != instrumented.PartAccesses {
			t.Errorf("%s: telemetry changed partition routing", sch.Name())
		}
	}
}

func TestMetricsSeriesShape(t *testing.T) {
	cfg := schemeConfig(t, "part-adaptive")
	rec := NewMetricsRecorder(50)
	cfg.Metrics = rec
	ks := mustRun(t, cfg, tracedKernel(t))

	series := rec.Series()
	if series.Len() == 0 {
		t.Fatal("no epoch samples recorded")
	}
	if got := len(series.Columns()); got < 6 {
		t.Fatalf("series has %d columns, want >= 6", got)
	}
	col := map[string]int{}
	for i, c := range series.Columns() {
		col[c] = i
	}
	var sumIssued, sumBusy, sumStalls, sumCycles float64
	var prevCycle float64 = -1
	for i := 0; i < series.Len(); i++ {
		row := series.Row(i)
		if row[col["kernel"]] != 1 {
			t.Errorf("row %d kernel seq = %g, want 1", i, row[col["kernel"]])
		}
		if row[col["sm"]] == 0 { // per-SM cycle stamps must be monotonic
			if row[col["cycle"]] <= prevCycle {
				t.Errorf("row %d cycle %g not after %g", i, row[col["cycle"]], prevCycle)
			}
			prevCycle = row[col["cycle"]]
		}
		if u := row[col["util"]]; u < 0 || u > 1 {
			t.Errorf("row %d util = %g outside [0,1]", i, u)
		}
		sumIssued += row[col["issued"]]
		sumBusy += row[col["busy"]]
		rowStalls := 0.0
		for _, c := range series.Columns() {
			if strings.HasPrefix(c, "stall_") {
				rowStalls += row[col[c]]
			}
		}
		sumStalls += rowStalls
	}
	sumCycles = sumBusy + sumStalls
	if uint64(sumIssued) != ks.WarpInstrs {
		t.Errorf("series issued sum %g != WarpInstrs %d", sumIssued, ks.WarpInstrs)
	}
	// Busy + stalls across all rows covers every observed SM-cycle —
	// i.e. the partial final epoch was flushed.
	if uint64(sumCycles) != ks.SMCycles {
		t.Errorf("series covers %g SM-cycles, stats observed %d", sumCycles, ks.SMCycles)
	}
	if uint64(sumStalls) != ks.StallBreakdown.Total() {
		t.Errorf("series stalls %g != breakdown total %d", sumStalls, ks.StallBreakdown.Total())
	}
}

func TestMetricsKernelSequenceAcrossKernels(t *testing.T) {
	cfg := testConfig()
	rec := NewMetricsRecorder(25)
	cfg.Metrics = rec
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := tracedKernel(t)
	if _, err := g.RunKernel(k); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunKernel(k); err != nil {
		t.Fatal(err)
	}
	series := rec.Series()
	kernels := map[float64]bool{}
	for i := 0; i < series.Len(); i++ {
		kernels[series.Row(i)[0]] = true
	}
	if !kernels[1] || !kernels[2] {
		t.Errorf("kernel column values = %v, want {1,2}", kernels)
	}
}

func TestMetricsCSVHasHeaderAndRows(t *testing.T) {
	cfg := testConfig()
	rec := NewMetricsRecorder(50)
	cfg.Metrics = rec
	mustRun(t, cfg, tracedKernel(t))
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("CSV has %d lines, want schema + header + rows", len(lines))
	}
	if lines[0] != "# schema: "+MetricsSchema {
		t.Errorf("CSV schema line = %q", lines[0])
	}
	if lines[1] != strings.Join(MetricColumns, ",") {
		t.Errorf("CSV header = %q", lines[1])
	}
	want := len(MetricColumns)
	for i, line := range lines[2:] {
		if got := strings.Count(line, ",") + 1; got != want {
			t.Errorf("row %d has %d fields, want %d", i, got, want)
		}
	}
}

// TestMetricsSchemaVersionLockstep pins the versioned header: the schema
// tag must carry the current version number, and the column count must
// match what that version declares — so adding a column without bumping
// the version (or vice versa) fails here.
func TestMetricsSchemaVersionLockstep(t *testing.T) {
	want, ok := metricsSchemaColumns[MetricsSchemaVersion]
	if !ok {
		t.Fatalf("MetricsSchemaVersion %d missing from metricsSchemaColumns", MetricsSchemaVersion)
	}
	if got := len(MetricColumns); got != want {
		t.Errorf("len(MetricColumns) = %d, schema v%d declares %d", got, MetricsSchemaVersion, want)
	}
	if suffix := fmt.Sprintf("/v%d", MetricsSchemaVersion); !strings.HasSuffix(MetricsSchema, suffix) {
		t.Errorf("MetricsSchema %q does not end in %q", MetricsSchema, suffix)
	}
	if rec := NewMetricsRecorder(50); rec.Schema() != MetricsSchema {
		t.Errorf("recorder schema = %q, want %q", rec.Schema(), MetricsSchema)
	}
}

func TestLiveRegistryAggregates(t *testing.T) {
	cfg := testConfig()
	rec := NewMetricsRecorder(50)
	cfg.Metrics = rec
	ks := mustRun(t, cfg, tracedKernel(t))
	m := rec.Registry().Map()
	if got := m["sim.sm_cycles"]; uint64(got) != ks.SMCycles {
		t.Errorf("registry sm_cycles = %g, stats = %d", got, ks.SMCycles)
	}
	if got := m["sim.issued"]; uint64(got) != ks.WarpInstrs {
		t.Errorf("registry issued = %g, stats = %d", got, ks.WarpInstrs)
	}
	if m["sim.epoch_samples"] == 0 {
		t.Error("no epoch samples counted")
	}
}

// TestTelemetryHotPathZeroAlloc asserts the per-cycle observation path —
// and the disabled paths it replaces — never allocate. Epoch-boundary
// sampling allocates one row; mid-epoch cycles must not.
func TestTelemetryHotPathZeroAlloc(t *testing.T) {
	cfg := testConfig()
	cfg.Stalls = true
	cfg.Metrics = NewMetricsRecorder(1 << 30) // never reach a boundary
	ks := KernelStats{RegHist: stats.NewHistogram(4)}
	run := &runState{cfg: &cfg, kern: benchKernel(t), stats: &ks}
	s, err := newSM(0, &cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	s.launchCTA(0)

	if a := testing.AllocsPerRun(1000, func() {
		s.observeCycle()
		s.now++
	}); a != 0 {
		t.Errorf("observeCycle allocates %.1f per cycle, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		_ = s.classifyStall()
	}); a != 0 {
		t.Errorf("classifyStall allocates %.1f per call, want 0", a)
	}
}

// benchKernel builds a minimal one-warp kernel for direct-SM tests.
func benchKernel(t testing.TB) *kernel.Kernel {
	b := kernel.NewBuilder("telemetry-bench", 4)
	b.MOVI(1, 1)
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 32, NumCTAs: 1}
}

func BenchmarkObserveCycle(b *testing.B) {
	cfg := testConfig()
	cfg.Stalls = true
	cfg.Metrics = NewMetricsRecorder(1 << 30)
	ks := KernelStats{RegHist: stats.NewHistogram(4)}
	run := &runState{cfg: &cfg, kern: benchKernel(b), stats: &ks}
	s, err := newSM(0, &cfg, run)
	if err != nil {
		b.Fatal(err)
	}
	s.launchCTA(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.observeCycle()
		s.now++
	}
}

func BenchmarkTickTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, stalls bool) {
		cfg := testConfig()
		cfg.Stalls = stalls
		k := benchKernel(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := g.RunKernel(k); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("stalls", func(b *testing.B) { run(b, true) })
}
