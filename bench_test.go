package pilotrf

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper. Each benchmark regenerates its artifact and reports the
// headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Simulation results are cached in a
// shared runner (the workloads are deterministic), so iterations beyond
// the first are cheap; run with -benchtime=1x for a single full pass.
//
// The runner uses scale 0.5 on one SM, which preserves the designed
// CTA-wave structure (identical to full scale on the two-SM default).

import (
	"sync"
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/experiments"
	"pilotrf/internal/finfet"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/sim"
	"pilotrf/internal/workloads"
)

var (
	benchOnce   sync.Once
	benchRunner *experiments.Runner
)

func runner() *experiments.Runner {
	benchOnce.Do(func() { benchRunner = experiments.NewRunner(0.5, 1) })
	return benchRunner
}

func BenchmarkFigure1_FO4DelayVsVdd(b *testing.B) {
	var pts []finfet.Figure1Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Figure1()
	}
	var ntv, stv float64
	for _, p := range pts {
		switch p.Vdd {
		case 0.30:
			ntv = p.DelayNS
		case 0.45:
			stv = p.DelayNS
		}
	}
	b.ReportMetric(stv, "chain-ns@STV")
	b.ReportMetric(ntv, "chain-ns@NTV")
	b.ReportMetric(ntv/stv, "NTV:STV-ratio")
}

func BenchmarkTable1_BenchmarkInfo(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(runner())
	}
	var geomeanable []float64
	for _, r := range rows {
		geomeanable = append(geomeanable, r.MeasuredPilotPct)
		if r.Benchmark == "LIB" {
			b.ReportMetric(r.MeasuredPilotPct, "LIB-pilot-pct")
		}
		if r.Benchmark == "WP" {
			b.ReportMetric(r.MeasuredPilotPct, "WP-pilot-pct")
		}
	}
	b.ReportMetric(float64(len(rows)), "benchmarks")
}

func BenchmarkFigure2_TopNAccessShare(b *testing.B) {
	var res experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure2(runner())
	}
	b.ReportMetric(res.Avg3*100, "top3-pct(paper:62)")
	b.ReportMetric(res.Avg4*100, "top4-pct(paper:72)")
	b.ReportMetric(res.Avg5*100, "top5-pct(paper:77)")
}

func BenchmarkFigure4_ProfilingEfficiency(b *testing.B) {
	var rows []experiments.Figure4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure4(runner())
	}
	var comp, pilot, hybrid, opt float64
	for _, r := range rows {
		comp += r.Compiler
		pilot += r.Pilot
		hybrid += r.Hybrid
		opt += r.Optimal
	}
	n := float64(len(rows))
	b.ReportMetric(comp/n*100, "compiler-pct")
	b.ReportMetric(pilot/n*100, "pilot-pct")
	b.ReportMetric(hybrid/n*100, "hybrid-pct")
	b.ReportMetric(opt/n*100, "optimal-pct")
}

func BenchmarkTable3_SRAMCells(b *testing.B) {
	var rows []finfet.Table3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3()
	}
	b.ReportMetric(rows[0].IOn*1e6, "Ion-uA/um@NTV(paper:750.5)")
	b.ReportMetric(rows[1].SNM*1000, "SNM-mV@STV(paper:144)")
}

func BenchmarkTable4_RFCharacteristics(b *testing.B) {
	var frfLow, mrf float64
	for i := 0; i < b.N; i++ {
		t4 := experiments.Table4()
		frfLow, mrf = t4[0].AccessEnergyPJ, t4[3].AccessEnergyPJ
	}
	b.ReportMetric(frfLow, "FRFlow-pJ(paper:5.25)")
	b.ReportMetric(mrf, "MRF-pJ(paper:14.9)")
}

func BenchmarkFigure10_AccessDistribution(b *testing.B) {
	var res experiments.Figure10Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure10(runner())
	}
	b.ReportMetric(res.AvgFRF*100, "FRF-pct(paper:62)")
	b.ReportMetric(res.AvgLowShareOfFRF*100, "lowmode-pct(paper:22)")
}

func BenchmarkFigure11_DynamicEnergy(b *testing.B) {
	var res experiments.Figure11Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure11(runner())
	}
	b.ReportMetric(res.AvgSavingsAdaptive*100, "saving-pct(paper:54)")
	b.ReportMetric(res.AvgSavingsNTV*100, "ntv-saving-pct(paper:47)")
}

func BenchmarkLeakageSavings(b *testing.B) {
	var l experiments.LeakageReport
	for i := 0; i < b.N; i++ {
		l = experiments.Leakage()
	}
	b.ReportMetric(l.SavingsPct, "saving-pct(paper:39)")
	b.ReportMetric(l.FRFShareOfMRF*100, "FRF-share-pct(paper:21.5)")
	b.ReportMetric(l.SRFShareOfMRF*100, "SRF-share-pct(paper:39.7)")
}

func BenchmarkFigure12_ExecutionTime(b *testing.B) {
	var res experiments.Figure12Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure12(runner())
	}
	b.ReportMetric((res.GeoHybridGTO-1)*100, "hybrid-ovh-pct(paper:<2)")
	b.ReportMetric((res.GeoNTVGTO-1)*100, "ntv-ovh-pct(paper:7.1)")
	b.ReportMetric((res.GeoCompilerGTO-1)*100, "compiler-ovh-pct")
}

func BenchmarkSRFLatencySensitivity(b *testing.B) {
	var pts []experiments.LatencyPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.SRFLatencySensitivity(runner())
	}
	base := pts[0].GeoSlowdown
	b.ReportMetric((pts[1].GeoSlowdown-base)*100, "4cyc-extra-pct(paper:0.5)")
	b.ReportMetric((pts[2].GeoSlowdown-base)*100, "5cyc-extra-pct(paper:2.4)")
}

func BenchmarkEpochSensitivity(b *testing.B) {
	var pts []experiments.EpochPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.EpochSensitivity(runner())
	}
	lo, hi := pts[0].GeoSlowdown, pts[0].GeoSlowdown
	for _, p := range pts {
		if p.GeoSlowdown < lo {
			lo = p.GeoSlowdown
		}
		if p.GeoSlowdown > hi {
			hi = p.GeoSlowdown
		}
	}
	b.ReportMetric((hi-lo)*100, "spread-pct(paper:small)")
}

func BenchmarkThresholdSweep(b *testing.B) {
	var pts []experiments.ThresholdPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.ThresholdSweep(runner())
	}
	for _, p := range pts {
		if p.Threshold == 85 {
			b.ReportMetric(p.AvgLowShare*100, "lowmode-pct@85(paper:22)")
			b.ReportMetric((p.GeoSlowdown-1)*100, "ovh-pct@85")
		}
	}
}

func BenchmarkFigure13_RFCScaling(b *testing.B) {
	var rows []experiments.Figure13Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure13(runner())
	}
	b.ReportMetric((1-rows[0].RFCEnergy)*100, "rfc-saving-pct@8w")
	b.ReportMetric((1-rows[2].RFCEnergy)*100, "rfc-saving-pct@32w")
	b.ReportMetric((1-rows[3].RFCEnergy)*100, "rfc-saving-pct@STV(paper:10)")
	b.ReportMetric((1-rows[2].PartitionedEnergy)*100, "part-saving-pct@32w")
	b.ReportMetric((rows[0].RFCSlowdown-1)*100, "rfc-ovh-pct@8w(paper:9.5)")
	b.ReportMetric((rows[2].RFCSlowdown-1)*100, "rfc-ovh-pct@32w(paper:3.3)")
}

func BenchmarkRFCPortScaling(b *testing.B) {
	var rows []experiments.PortScalingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.RFCPortScaling()
	}
	b.ReportMetric(rows[0].RelativeToMRF, "R2W1-x(paper:0.37)")
	b.ReportMetric(rows[2].RelativeToMRF, "R8W4-x(paper:3.0)")
	b.ReportMetric(experiments.BankedRFCEnergyRelative(), "banked-x(paper:~1)")
}

func BenchmarkSwappingTable(b *testing.B) {
	var rows []experiments.SwapTableRow
	for i := 0; i < b.N; i++ {
		rows = experiments.SwapTableDelays()
	}
	for _, r := range rows {
		switch r.Tech.String() {
		case "7nm FinFET":
			b.ReportMetric(r.DelayPS, "7nm-ps(paper:55)")
		case "22nm CMOS":
			b.ReportMetric(r.DelayPS, "22nm-ps(paper:105)")
		}
	}
	b.ReportMetric((experiments.SwapTablePenalty(runner())-1)*100, "extra-cycle-ovh-pct")
}

func BenchmarkAblationFRFSize(b *testing.B) {
	var pts []experiments.FRFSizePoint
	for i := 0; i < b.N; i++ {
		pts = experiments.FRFSizeSweep(runner())
	}
	for _, p := range pts {
		if p.FRFRegs == 4 {
			b.ReportMetric(p.AvgFRFShare*100, "share-pct@4regs")
		}
		if p.FRFRegs == 8 {
			b.ReportMetric(p.AvgFRFShare*100, "share-pct@8regs")
		}
	}
}

func BenchmarkAblationForwarding(b *testing.B) {
	var pts []experiments.ForwardingPoint
	for i := 0; i < b.N; i++ {
		pts = experiments.ForwardingAblation(runner())
	}
	b.ReportMetric((pts[0].GeoNTV-1)*100, "ntv-ovh-pct-nofwd")
	b.ReportMetric((pts[1].GeoNTV-1)*100, "ntv-ovh-pct-fwd")
}

func BenchmarkExtensionRegisterGating(b *testing.B) {
	var rows []experiments.GatingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.RegisterGatingExtension(runner())
	}
	var sum float64
	for _, r := range rows {
		sum += r.GatedSavings
	}
	b.ReportMetric(sum/float64(len(rows)), "avg-gated-saving-pct")
}

func BenchmarkExtensionVoltageSweep(b *testing.B) {
	var pts []experiments.VoltagePoint
	for i := 0; i < b.N; i++ {
		pts = experiments.VoltageSweep()
	}
	for _, p := range pts {
		if p.Vdd == 0.30 {
			b.ReportMetric(p.AccessEnergyPJ, "pJ@0.3V")
			b.ReportMetric(float64(p.AccessCycles), "cycles@0.3V")
		}
	}
}

func BenchmarkScorecard(b *testing.B) {
	var rows []experiments.ScoreRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Scorecard(runner())
	}
	pass := 0
	for _, r := range rows {
		if r.Pass {
			pass++
		}
	}
	b.ReportMetric(float64(pass), "rows-pass")
	b.ReportMetric(float64(len(rows)), "rows-total")
}

// BenchmarkSimulatorThroughput measures the raw simulation speed of the
// cycle-level model (not a paper artifact; an engineering metric).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := workloads.ByName("srad")
	if err != nil {
		b.Fatal(err)
	}
	w = w.Scale(0.1)
	cfg := sim.DefaultConfig()
	cfg.NumSMs = 1
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		g, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := g.RunKernels(w.Name, w.Kernels)
		if err != nil {
			b.Fatal(err)
		}
		cycles += rs.TotalCycles()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
}

// observerBench runs one sgemm run (scale 0.1, part-adaptive, 1 SM) per
// iteration, with the observers attach puts on the config before each
// run, and reports Mwinstr/s, simulated warp-instructions per second,
// which is informational.
func observerBench(b *testing.B, attach func(cfg *sim.Config, workload string)) {
	w, err := workloads.ByName("sgemm")
	if err != nil {
		b.Fatal(err)
	}
	w = w.Scale(0.1)
	sch := design.MustLookup("part-adaptive")
	cfg, err := sim.DefaultConfig().WithScheme(sch, sch.DefaultKnobs())
	if err != nil {
		b.Fatal(err)
	}
	cfg.NumSMs = 1
	b.ResetTimer()
	var winstrs uint64
	for i := 0; i < b.N; i++ {
		attach(&cfg, w.Name)
		g, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := g.RunKernels(w.Name, w.Kernels)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range rs.Kernels {
			winstrs += k.WarpInstrs
		}
	}
	b.ReportMetric(float64(winstrs)/b.Elapsed().Seconds()/1e6, "Mwinstr/s")
}

// BenchmarkFlightRecorder prices the dearest observer end to end, a
// flight recorder on observerBench's run (an engineering metric, not a
// paper artifact). The checksum and event counts of a run are
// deterministic.
func BenchmarkFlightRecorder(b *testing.B) {
	var rec *flightrec.Recorder
	observerBench(b, func(cfg *sim.Config, workload string) {
		rec = sim.NewFlightRecorder(cfg, workload, 0)
		cfg.Record = rec
	})
	b.ReportMetric(float64(rec.Log().CountKind(flightrec.KindChecksum)), "checksums")
	b.ReportMetric(float64(rec.Len()), "events")
}

// detailReader is a tracer that reads every event's detail, as an
// exporter does.
type detailReader struct{ events, bytes int }

// Event implements sim.Tracer.
func (t *detailReader) Event(e sim.TraceEvent) {
	t.events++
	t.bytes += len(e.Detail)
}

// BenchmarkTracer prices a tracer that reads every event's detail on
// observerBench's run. A run's event count is deterministic.
func BenchmarkTracer(b *testing.B) {
	var tr *detailReader
	observerBench(b, func(cfg *sim.Config, _ string) {
		tr = &detailReader{}
		cfg.Tracer = tr
	})
	b.ReportMetric(float64(tr.events), "events")
}
