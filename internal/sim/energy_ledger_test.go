package sim

import (
	"strings"
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/energy"
	"pilotrf/internal/isa"
	"pilotrf/internal/profile"
	"pilotrf/internal/regfile"
	"pilotrf/internal/stats"
	"pilotrf/internal/workloads"
)

// TestEnergyLedgerConservationAllWorkloads is the tentpole property
// test: for every registered design scheme, run the whole Table I
// workload suite (scaled down for test speed) with the ledger attached,
// and require the streamed attribution to reproduce the aggregate
// energy package figures bit-exactly — epoch sums, heatmap sums, kernel
// cycles, dynamic pJ, and leakage pJ. Sweeping design.All() puts every
// newly registered scheme under the conservation property for free.
func TestEnergyLedgerConservationAllWorkloads(t *testing.T) {
	for _, sch := range design.All() {
		k := sch.DefaultKnobs()
		cfg, err := testConfig().WithScheme(sch, k)
		if err != nil {
			t.Fatal(err)
		}
		d := cfg.RF.Design
		led := energy.NewLedger(d, 0)
		cfg.Energy = led
		var parts [4]uint64
		var cycles int64
		for _, w := range workloads.All() {
			w = w.Scale(0.05)
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := g.RunKernels(w.Name, w.Kernels)
			if err != nil {
				t.Fatalf("%s/%s: %v", d, w.Name, err)
			}
			for p, n := range rs.PartAccesses() {
				parts[p] += n
			}
			cycles += rs.TotalCycles()
		}
		if err := led.CheckConservation(parts, cycles); err != nil {
			t.Errorf("%s: %v", d, err)
		}
		if parts == ([4]uint64{}) {
			t.Errorf("%s: suite produced no RF accesses", d)
		}
		if got, want := led.DynamicPJ(), energy.DynamicPJ(d, parts); got != want {
			t.Errorf("%s: ledger dynamic %v != aggregate %v", d, got, want)
		}
		if got, want := led.LeakagePJ(), energy.LeakagePJ(d, cycles); got != want {
			t.Errorf("%s: ledger leakage %v != aggregate %v", d, got, want)
		}
	}
}

// TestEnergyLedgerZeroPerturbation asserts the ledger and the audit log
// are purely observational: enabling both leaves cycle counts and every
// access statistic bit-identical.
func TestEnergyLedgerZeroPerturbation(t *testing.T) {
	for _, sch := range design.All() {
		k := sch.DefaultKnobs()
		base, err := testConfig().WithScheme(sch, k)
		if err != nil {
			t.Fatal(err)
		}
		d := base.RF.Design
		instr := base
		instr.Energy = energy.NewLedger(d, 0)
		instr.Audit = &profile.AuditLog{}

		for _, w := range workloads.All()[:4] {
			w = w.Scale(0.05)
			run := func(cfg Config) RunStats {
				g, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := g.RunKernels(w.Name, w.Kernels)
				if err != nil {
					t.Fatal(err)
				}
				return rs
			}
			plain, traced := run(base), run(instr)
			if plain.TotalCycles() != traced.TotalCycles() {
				t.Errorf("%s/%s: cycles %d with ledger vs %d without",
					d, w.Name, traced.TotalCycles(), plain.TotalCycles())
			}
			if plain.PartAccesses() != traced.PartAccesses() {
				t.Errorf("%s/%s: partition accesses diverge: %v vs %v",
					d, w.Name, traced.PartAccesses(), plain.PartAccesses())
			}
		}
	}
}

// TestEnergyChargePathZeroAlloc asserts the per-access charge path never
// allocates — neither with the ledger disabled (the default) nor with it
// enabled mid-epoch (folding at boundaries is allowed to allocate).
func TestEnergyChargePathZeroAlloc(t *testing.T) {
	build := func(cfg Config) *sm {
		ks := KernelStats{RegHist: stats.NewHistogram(4)}
		run := &runState{cfg: &cfg, kern: benchKernel(t), stats: &ks}
		s, err := newSM(0, &cfg, run)
		if err != nil {
			t.Fatal(err)
		}
		s.launchCTA(0)
		return s
	}

	s := build(testConfig())
	if s.en != nil {
		t.Fatal("ledger attached without Config.Energy")
	}
	if a := testing.AllocsPerRun(1000, func() {
		s.countPartAccess(regfile.PartMRF, 0, isa.R(1))
	}); a != 0 {
		t.Errorf("disabled countPartAccess allocates %.1f per call, want 0", a)
	}

	cfg := schemeConfig(t, "part-adaptive")
	cfg.Energy = energy.NewLedger(regfile.DesignPartitionedAdaptive, 1<<30)
	s = build(cfg)
	if a := testing.AllocsPerRun(1000, func() {
		s.countPartAccess(regfile.PartFRFHigh, 1, isa.R(2))
		s.energyCycle()
	}); a != 0 {
		t.Errorf("enabled charge path allocates %.1f per cycle, want 0", a)
	}
}

// TestEnergyLedgerEpochAndHeatExports checks the exporter output shapes:
// schema comments, headers, one epoch row per fold, and heat cells that
// identify the registers the kernel actually touched.
func TestEnergyLedgerEpochAndHeatExports(t *testing.T) {
	d := regfile.DesignPartitionedAdaptive
	led := energy.NewLedger(d, 25)
	cfg := schemeConfig(t, schemeName(d))
	cfg.Energy = led
	mustRun(t, cfg, tracedKernel(t))

	if led.Kernels() != 1 {
		t.Errorf("ledger kernels = %d, want 1", led.Kernels())
	}
	if len(led.Epochs()) == 0 {
		t.Fatal("no epoch charges recorded")
	}
	var sb strings.Builder
	if err := led.WriteEpochCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "# schema: "+energy.EpochSchema {
		t.Errorf("epoch CSV schema line = %q", lines[0])
	}
	if want := len(led.Epochs()) + 2; len(lines) != want {
		t.Errorf("epoch CSV has %d lines, want %d", len(lines), want)
	}
	wantFields := strings.Count(lines[1], ",") + 1
	for i, line := range lines[2:] {
		if got := strings.Count(line, ",") + 1; got != wantFields {
			t.Errorf("epoch row %d has %d fields, want %d", i, got, wantFields)
		}
	}

	cells := led.HeatCells()
	if len(cells) == 0 {
		t.Fatal("no heat cells recorded")
	}
	seen := map[isa.Reg]bool{}
	for _, c := range cells {
		seen[c.Reg] = true
		if c.Total() == 0 {
			t.Errorf("zero-access heat cell emitted: %+v", c)
		}
	}
	// tracedKernel touches R0..R3 plus the address register R1.
	for _, r := range []isa.Reg{isa.R(0), isa.R(1), isa.R(2), isa.R(3)} {
		if !seen[r] {
			t.Errorf("heatmap missing register %s", r)
		}
	}

	sb.Reset()
	if err := led.WriteHeatmapCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "# schema: "+energy.HeatmapSchema+"\n") {
		t.Errorf("heatmap CSV missing schema line: %q", sb.String()[:40])
	}
	sb.Reset()
	if err := led.WriteHeatmapJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"design"`, `"per_access_pj"`, `"cells"`, `"total_dynamic_pj"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("heatmap JSON missing %s", want)
		}
	}
}

// TestEnergyPerfettoCounterTracks checks that an attached tracer
// receives TraceEnergy samples and the Perfetto exporter renders them as
// per-component counter tracks.
func TestEnergyPerfettoCounterTracks(t *testing.T) {
	d := regfile.DesignPartitionedAdaptive
	var out strings.Builder
	tr := NewPerfettoTracer(&out)
	cfg := schemeConfig(t, schemeName(d))
	cfg.Energy = energy.NewLedger(d, 25)
	cfg.Tracer = tr
	mustRun(t, cfg, tracedKernel(t))
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, track := range []string{
		"energy_mrf_pj", "energy_frf_high_pj", "energy_frf_low_pj",
		"energy_srf_pj", "energy_leak_pj",
	} {
		if !strings.Contains(got, track) {
			t.Errorf("Perfetto output missing counter track %q", track)
		}
	}
	if !strings.Contains(got, `"ph":"C"`) {
		t.Error("Perfetto output has no counter-phase records")
	}

	// The NDJSON exporter must carry the same sample as a structured
	// field.
	out.Reset()
	nd := NewNDJSONTracer(&out)
	cfg.Tracer = nd
	mustRun(t, cfg, tracedKernel(t))
	if err := nd.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"energy":{`) {
		t.Error("NDJSON output missing energy payload")
	}
}

// TestSwapAuditRecordsPlacements runs the audit log through the three
// technique lifecycles and checks the recorded reasons: compiler seeds
// at launch, pilot measurements (and hybrid replacements) at pilot
// completion, and positional defaults for static-first-N.
func TestSwapAuditRecordsPlacements(t *testing.T) {
	run := func(tech profile.Technique) *profile.AuditLog {
		log := &profile.AuditLog{}
		cfg := schemeConfig(t, "part-adaptive")
		cfg.Profiling = tech
		cfg.Audit = log
		mustRun(t, cfg, tracedKernel(t))
		return log
	}

	static := run(profile.TechniqueStaticFirstN)
	if static.Len() == 0 {
		t.Fatal("static-first-n recorded no placements")
	}
	if got := static.CountReason(profile.PlaceStaticDefault); got != static.Len() {
		t.Errorf("static-first-n: %d/%d events are static-default", got, static.Len())
	}

	hybrid := run(profile.TechniqueHybrid)
	if hybrid.CountReason(profile.PlaceCompilerSeed) == 0 {
		t.Error("hybrid recorded no compiler-seed placements")
	}
	if hybrid.CountReason(profile.PlacePilotMeasured)+
		hybrid.CountReason(profile.PlaceHybridReplacement) == 0 {
		t.Error("hybrid recorded no pilot-driven placements")
	}
	for _, e := range hybrid.Events() {
		if e.Kernel != "traced" {
			t.Errorf("audit event kernel = %q, want traced", e.Kernel)
		}
		if int(e.Slot) >= maxInt(testConfig().RF.FRFRegs, testConfig().ProfTopN) {
			t.Errorf("audit slot %d outside the FRF", e.Slot)
		}
		if e.Reason == profile.PlacePilotMeasured && e.Cycle == 0 {
			t.Error("pilot-measured placement stamped at cycle 0")
		}
	}

	pilot := run(profile.TechniquePilot)
	if pilot.CountReason(profile.PlacePilotMeasured) == 0 {
		t.Error("pilot recorded no pilot-measured placements")
	}
	if pilot.CountReason(profile.PlaceHybridReplacement) != 0 {
		t.Error("pilot technique recorded hybrid replacements")
	}
}
