// Command experiments regenerates every table and figure of the paper's
// evaluation and prints them alongside the paper's reported values.
//
// Usage:
//
//	experiments [-scale f] [-sms n] [-parallel n] [-json out.json]
//	            [-trace-spans spans.ndjson] [-http :6060]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	            [-only fig1,table1,fig2,fig4,table3,table4,yield,fig10,
//	             fig11,leakage,fig12,sens,fig13,rfc,swap,area,dynamics,
//	             voltage,scorecard,ablation,energy]
//
// An unknown -only section is a usage error that lists the valid ones.
// cmd/dse sweeps the register-file design schemes.
//
// -parallel N (N >= 1, one per core by default) is how many workloads
// each experiment simulates at once. The output is byte-identical at any
// N. -trace-spans records one experiments.run span per simulation of the
// sweep.
//
// -http serves expvar and net/http/pprof on the given address so long
// sweeps can be profiled live (go tool pprof http://host/debug/pprof/profile).
// -cpuprofile and -memprofile write runtime/pprof CPU and heap profiles
// of the whole sweep instead; the JSON report and stdout are the same
// bytes with or without them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"pilotrf/internal/experiments"
	"pilotrf/internal/jobs"
	"pilotrf/internal/telemetry"
	"pilotrf/internal/trace"
)

// sections are the -only names, in the order the sweep prints them.
var sections = []string{
	"fig1", "table3", "yield", "table4", "area", "swap", "table1", "fig2",
	"fig4", "dynamics", "fig10", "fig11", "leakage", "fig12", "sens", "rfc",
	"fig13", "voltage", "energy", "scorecard", "ablation",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes the sweep and returns the process exit code: 0 on
// success, 1 on failure, 3 when a SIGINT/SIGTERM stopped the sweep
// early (the experiments that finished are still printed and the JSON
// report still written). The sections print to stdout.
func run(args []string, stdout io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		scale     = fs.Float64("scale", 1, "workload CTA scale factor")
		sms       = fs.Int("sms", 2, "simulated SMs")
		only      = fs.String("only", "", "comma-separated experiment list (empty = all)")
		jsonPath  = fs.String("json", "", "also write the results as JSON to this file")
		parallel  = fs.Int("parallel", jobs.DefaultWorkers(), "how many workloads each experiment simulates at once (>= 1)")
		httpAddr  = fs.String("http", "", "serve expvar/pprof on this address during the sweep (e.g. :6060)")
		spansPath = fs.String("trace-spans", "", "write the sweep's span tree here as pilotrf-spans/v1 NDJSON, one experiments.run span per simulation")
		cpuPath   = fs.String("cpuprofile", "", "write a CPU profile of the sweep here")
		memPath   = fs.String("memprofile", "", "write a heap profile here after the sweep")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if !slices.Contains(sections, name) {
			fmt.Fprintf(os.Stderr, "unknown -only section %q (valid: %s)\n", name, strings.Join(sections, ", "))
			return 2
		}
		want[name] = true
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "parallel must be >= 1, got %d\n", *parallel)
		return 2
	}

	if *httpAddr != "" {
		srv, err := telemetry.StartLive(*httpAddr, telemetry.NewRegistry())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving expvar/pprof on %s\n", srv.Addr)
	}

	stopProfiles, err := telemetry.StartProfiles(*cpuPath, *memPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil && code == 0 {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}()

	report := map[string]interface{}{
		"scale": *scale,
		"sms":   *sms,
	}
	writeReport := func() int {
		if *jsonPath == "" {
			return 0
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "JSON report written to %s\n", *jsonPath)
		return 0
	}

	// SIGINT/SIGTERM stop the sweep at the next experiment boundary:
	// sel() starts refusing every section, the partial JSON report still
	// flushes, and the process exits 3.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	stopped := false
	interrupted := func() bool {
		if !stopped {
			select {
			case <-sigc:
				stopped = true
			default:
			}
		}
		return stopped
	}

	sel := func(name string) bool {
		return !interrupted() && (len(want) == 0 || want[name])
	}

	r := experiments.NewRunner(*scale, *sms)
	r.Workers = *parallel
	var spans *trace.Recorder
	var sweep *trace.ActiveSpan
	if *spansPath != "" {
		spans = trace.NewRecorder(true)
		sweep = spans.Root("experiments.sweep", trace.TraceID("pilotrf-experiments", "sweep"))
		r.Trace = sweep.Context()
	}

	if sel("fig1") {
		fmt.Fprintln(stdout, "=== Figure 1: 40-stage FO4 inverter chain delay vs Vdd (7nm FinFET) ===")
		fig1 := experiments.Figure1()
		report["figure1"] = fig1
		for _, p := range fig1 {
			fmt.Fprintf(stdout, "  Vdd=%.3f V   delay=%8.3f ns\n", p.Vdd, p.DelayNS)
		}
		fmt.Fprintln(stdout)
	}

	if sel("table3") {
		fmt.Fprintln(stdout, "=== Table III: 8T SRAM cell characteristics (paper: 7.505e-4/2.372e-3/2.427e-4 A/um; SNM 0.092/0.144/0.096 V) ===")
		t3 := experiments.Table3()
		report["table3"] = t3
		for _, row := range t3 {
			fmt.Fprintf(stdout, "  %-12s Vdd=%.2f V   Ion=%.3e A/um   SNM=%.3f V\n", row.Design, row.Vdd, row.IOn, row.SNM)
		}
		fmt.Fprintln(stdout)
	}

	if sel("yield") {
		fmt.Fprintln(stdout, "=== SRAM Monte Carlo yield (Section IV-A: 8T usable at NTV, 6T not) ===")
		yield := experiments.SRAMYieldStudy(20000, 1)
		report["sram_yield"] = yield
		for _, row := range yield {
			fmt.Fprintf(stdout, "  %-4s @ %.2f V   yield=%.4f   mean SNM=%.3f V\n", row.Cell, row.Vdd, row.Yield, row.MeanV)
		}
		fmt.Fprintln(stdout)
	}

	if sel("table4") {
		fmt.Fprintln(stdout, "=== Table IV: partition characteristics (paper: 5.25/7.65/7.03/14.9 pJ; 7.28/7.28/13.4/33.8 mW) ===")
		t4 := experiments.Table4()
		report["table4"] = t4
		for _, row := range t4 {
			fmt.Fprintf(stdout, "  %-9s access=%6.2f pJ   leakage=%6.2f mW   size=%4.0f KB   cycles=%d\n",
				row.Name, row.AccessEnergyPJ, row.LeakageMW, row.SizeKB, row.AccessCycles)
		}
		fmt.Fprintln(stdout)
	}

	if sel("area") {
		a := experiments.Area()
		report["area"] = a
		fmt.Fprintln(stdout, "=== Area (Section V-A; paper: 0.200 -> 0.214 mm^2, <10%) ===")
		fmt.Fprintf(stdout, "  baseline=%.3f mm^2   proposed=%.3f mm^2   overhead=%.1f%%\n\n",
			a.BaselineMM2, a.ProposedMM2, a.OverheadPct)
	}

	if sel("swap") {
		fmt.Fprintln(stdout, "=== Swapping table (Section III-B; paper: 105/95/55 ps) ===")
		swaps := experiments.SwapTableDelays()
		report["swap_table"] = swaps
		for _, row := range swaps {
			fmt.Fprintf(stdout, "  %-11s %6.1f ps  (%.1f%% of the 900 MHz cycle)\n", row.Tech, row.DelayPS, row.CycleFraction*100)
		}
		fmt.Fprintf(stdout, "  +1-cycle conservative variant slowdown: %.3fx (paper: <1%%)\n\n",
			experiments.SwapTablePenalty(r))
	}

	if sel("table1") {
		fmt.Fprintln(stdout, "=== Table I: benchmark runtime information ===")
		fmt.Fprintf(stdout, "  %-10s cat  regs  thr/CTA   pilot%% (measured)   pilot%% (paper)\n", "bench")
		t1 := experiments.Table1(r)
		report["table1"] = t1
		for _, row := range t1 {
			fmt.Fprintf(stdout, "  %-10s  %d   %3d   %5d     %8.2f            %8.2f\n",
				row.Benchmark, row.Category, row.RegsPerThread, row.ThreadsPerCTA,
				row.MeasuredPilotPct, row.PaperPilotPct)
		}
		fmt.Fprintln(stdout)
	}

	if sel("fig2") {
		res := experiments.Figure2(r)
		report["figure2"] = res
		fmt.Fprintln(stdout, "=== Figure 2: accesses to the top-N registers (paper avg: 62/72/77%) ===")
		for _, row := range res.Rows {
			fmt.Fprintf(stdout, "  %-10s top3=%.2f  top4=%.2f  top5=%.2f\n", row.Benchmark, row.Top3, row.Top4, row.Top5)
		}
		fmt.Fprintf(stdout, "  AVERAGE    top3=%.2f  top4=%.2f  top5=%.2f\n\n", res.Avg3, res.Avg4, res.Avg5)
	}

	if sel("fig4") {
		fmt.Fprintln(stdout, "=== Figure 4: profiling efficiency (FRF capture, deployed) ===")
		fmt.Fprintf(stdout, "  %-10s cat  compiler  pilot  hybrid  optimal\n", "bench")
		f4 := experiments.Figure4(r)
		report["figure4"] = f4
		for _, row := range f4 {
			fmt.Fprintf(stdout, "  %-10s  %d     %.2f     %.2f    %.2f     %.2f\n",
				row.Benchmark, row.Category, row.Compiler, row.Pilot, row.Hybrid, row.Optimal)
		}
		fmt.Fprintf(stdout, "  sgemm static-first-4 share: %.2f (paper: ~0.25)\n\n",
			experiments.StaticFirstNShare(r, "sgemm"))
	}

	if sel("dynamics") {
		fmt.Fprintln(stdout, "=== Code dynamics (Section III-A2: <5% per-warp deviation, stable top-4) ===")
		dyn := experiments.CodeDynamics(r)
		report["code_dynamics"] = dyn
		for _, row := range dyn {
			fmt.Fprintf(stdout, "  %-10s deviation=%.3f   top4 stable=%v\n", row.Benchmark, row.MeanRelDeviation, row.Top4SetStable)
		}
		fmt.Fprintln(stdout)
	}

	if sel("fig10") {
		res := experiments.Figure10(r)
		report["figure10"] = res
		fmt.Fprintln(stdout, "=== Figure 10: partitioned RF access distribution (paper: 62% FRF, 22% of FRF in low mode) ===")
		for _, row := range res.Rows {
			fmt.Fprintf(stdout, "  %-10s FRF_high=%.2f  FRF_low=%.2f  SRF=%.2f   (low share of FRF: %.2f)\n",
				row.Benchmark, row.FRFHigh, row.FRFLow, row.SRF, row.LowShareOfFRF)
		}
		fmt.Fprintf(stdout, "  AVERAGE    FRF=%.2f   low-mode share of FRF=%.2f\n\n", res.AvgFRF, res.AvgLowShareOfFRF)
	}

	if sel("fig11") {
		res := experiments.Figure11(r)
		report["figure11"] = res
		fmt.Fprintln(stdout, "=== Figure 11: dynamic energy normalized to MRF@STV (paper: 54% saving; NTV 47%) ===")
		for _, row := range res.Rows {
			fmt.Fprintf(stdout, "  %-10s partitioned=%.2f  +adaptive=%.2f  MRF@NTV=%.2f\n",
				row.Benchmark, row.PartitionedOnly, row.PartitionedAdaptive, row.MonolithicNTV)
		}
		fmt.Fprintf(stdout, "  AVG SAVINGS  partitioned=%.0f%%  +adaptive=%.0f%%  MRF@NTV=%.0f%%\n\n",
			res.AvgSavingsPartOnly*100, res.AvgSavingsAdaptive*100, res.AvgSavingsNTV*100)
	}

	if sel("leakage") {
		l := experiments.Leakage()
		report["leakage"] = l
		fmt.Fprintln(stdout, "=== Leakage (Section V-B; paper: FRF 21.5%, SRF 39.7%, savings 39%) ===")
		fmt.Fprintf(stdout, "  MRF=%.1f mW   FRF=%.2f mW (%.1f%%)   SRF=%.1f mW (%.1f%%)   savings=%.1f%%\n\n",
			l.MRFLeakageMW, l.FRFLeakageMW, l.FRFShareOfMRF*100, l.SRFLeakageMW, l.SRFShareOfMRF*100, l.SavingsPct)
	}

	if sel("fig12") {
		res := experiments.Figure12(r)
		report["figure12"] = res
		fmt.Fprintln(stdout, "=== Figure 12: normalized execution time (paper: <2% proposed, 7.1% NTV) ===")
		for _, row := range res.Rows {
			fmt.Fprintf(stdout, "  %-10s hybrid/GTO=%.3f  compiler/GTO=%.3f  NTV/GTO=%.3f  hybrid/TL=%.3f  hybrid/LRR=%.3f\n",
				row.Benchmark, row.PartitionedHybridGTO, row.PartitionedCompilerGTO,
				row.MonolithicNTVGTO, row.PartitionedHybridTL, row.PartitionedHybridLRR)
		}
		fmt.Fprintf(stdout, "  GEOMEAN    hybrid/GTO=%.3f  compiler/GTO=%.3f  NTV/GTO=%.3f  hybrid/TL=%.3f  hybrid/LRR=%.3f\n\n",
			res.GeoHybridGTO, res.GeoCompilerGTO, res.GeoNTVGTO, res.GeoHybridTL, res.GeoHybridLRR)
	}

	if sel("sens") {
		fmt.Fprintln(stdout, "=== Sensitivity studies (Section V-B/V-C) ===")
		srf := experiments.SRFLatencySensitivity(r)
		report["srf_latency"] = srf
		for _, p := range srf {
			fmt.Fprintf(stdout, "  SRF %d cycles: slowdown %.3fx\n", p.SRFCycles, p.GeoSlowdown)
		}
		epochs := experiments.EpochSensitivity(r)
		report["epoch_sensitivity"] = epochs
		for _, p := range epochs {
			fmt.Fprintf(stdout, "  epoch %3d cycles (20%% threshold): slowdown %.3fx  low-mode share %.2f\n",
				p.EpochCycles, p.GeoSlowdown, p.AvgLowShare)
		}
		ths := experiments.ThresholdSweep(r)
		report["threshold_sweep"] = ths
		for _, p := range ths {
			fmt.Fprintf(stdout, "  threshold %3d/400: slowdown %.3fx  low-mode share %.2f\n",
				p.Threshold, p.GeoSlowdown, p.AvgLowShare)
		}
		fmt.Fprintln(stdout)
	}

	if sel("rfc") {
		fmt.Fprintln(stdout, "=== RFC port/bank scaling (Section V-D; paper: 0.37x at R2W1, 3x at R8W4, ~1x banked) ===")
		ports := experiments.RFCPortScaling()
		report["rfc_ports"] = ports
		for _, row := range ports {
			fmt.Fprintf(stdout, "  (R%d,W%d): %.2fx MRF access energy\n", row.ReadPorts, row.WritePorts, row.RelativeToMRF)
		}
		fmt.Fprintf(stdout, "  8-banked crossbar RFC: %.2fx MRF\n\n", experiments.BankedRFCEnergyRelative())
	}

	if sel("fig13") {
		fmt.Fprintln(stdout, "=== Figure 13: RFC vs partitioned RF scaling ===")
		fmt.Fprintf(stdout, "  %-14s rfcKB  rfcE   partE  rfcSlow  partSlow  hit\n", "config")
		f13 := experiments.Figure13(r)
		report["figure13"] = f13
		for _, row := range f13 {
			fmt.Fprintf(stdout, "  %-14s %4.0f   %.2f   %.2f   %.3f    %.3f     %.2f\n",
				row.Config.Label(), row.RFCSizeKB, row.RFCEnergy, row.PartitionedEnergy,
				row.RFCSlowdown, row.PartitionedSlowdown, row.RFCHitRate)
		}
		fmt.Fprintln(stdout)
	}

	if sel("voltage") {
		fmt.Fprintln(stdout, "=== Extension: RF energy/latency vs supply voltage (why NTV = 0.3 V) ===")
		vs := experiments.VoltageSweep()
		report["voltage_sweep"] = vs
		for _, p := range vs {
			fmt.Fprintf(stdout, "  Vdd=%.3f V  access=%5.2f pJ  leakage=%5.1f mW  cycles=%d  delay=%.2fx\n",
				p.Vdd, p.AccessEnergyPJ, p.LeakageMW, p.AccessCycles, p.DelayRatio)
		}
		fmt.Fprintln(stdout)
	}

	if sel("energy") {
		fmt.Fprintln(stdout, "=== Energy ledger: per-partition attribution + swap audit (conservation-checked) ===")
		rows := experiments.EnergyReport(r)
		report["energy_report"] = rows
		fmt.Fprint(stdout, experiments.EnergyReportText(rows))
		fmt.Fprintln(stdout)
	}

	if sel("scorecard") {
		fmt.Fprintln(stdout, "=== Reproduction scorecard ===")
		rows := experiments.Scorecard(r)
		report["scorecard"] = rows
		fmt.Fprint(stdout, experiments.ScorecardText(rows))
		fmt.Fprintln(stdout)
	}

	if sel("ablation") {
		fmt.Fprintln(stdout, "=== Ablation: FRF size (paper design point: 4 registers/thread) ===")
		fmt.Fprintf(stdout, "  %-8s %6s %10s %10s %10s\n", "FRFregs", "KB", "FRF share", "saving", "slowdown")
		frfs := experiments.FRFSizeSweep(r)
		report["frf_size_sweep"] = frfs
		for _, p := range frfs {
			fmt.Fprintf(stdout, "  %-8d %6.0f %9.0f%% %9.1f%% %9.3fx\n",
				p.FRFRegs, p.FRFSizeKB, p.AvgFRFShare*100, p.AvgSavings*100, p.GeoSlowdown)
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "=== Ablation: profiling technique, end to end ===")
		fmt.Fprintf(stdout, "  %-16s %10s %10s %10s\n", "technique", "FRF share", "saving", "slowdown")
		abl := experiments.ProfilingTechniqueAblation(r)
		report["profiling_ablation"] = abl
		for _, row := range abl {
			fmt.Fprintf(stdout, "  %-16s %9.0f%% %9.1f%% %9.3fx\n",
				row.Technique, row.AvgFRFShare*100, row.AvgSavings*100, row.GeoSlowdown)
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "=== Ablation: pipeline latency model (writeback forwarding) ===")
		fwd := experiments.ForwardingAblation(r)
		report["forwarding_ablation"] = fwd
		for _, p := range fwd {
			fmt.Fprintf(stdout, "  forwarding=%-5v hybrid=%.3fx  NTV=%.3fx\n", p.Forwarding, p.GeoHybrid, p.GeoNTV)
		}
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "=== Extension: power-gating unallocated registers (beyond the paper) ===")
		gating := experiments.RegisterGatingExtension(r)
		report["register_gating"] = gating
		for _, row := range gating {
			fmt.Fprintf(stdout, "  %-10s occupancy=%.2f  partitioned=%.1f mW (%.0f%%)  +gating=%.1f mW (%.0f%%)\n",
				row.Benchmark, row.Occupancy, row.PartitionedMW, row.SavingsPct, row.GatedMW, row.GatedSavings)
		}
		fmt.Fprintln(stdout)
	}

	code = writeReport()
	if sweep != nil {
		sweep.End()
		if err := trace.WriteSpansFile(*spansPath, spans.Spans()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		} else {
			fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", spans.Len(), *spansPath)
		}
	}
	if stopped {
		fmt.Fprintln(os.Stderr, "interrupted: sweep stopped early, partial report flushed")
		if code == 0 {
			code = 3
		}
	}
	return code
}
