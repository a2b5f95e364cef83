package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/energy"
	"pilotrf/internal/regfile"
	"pilotrf/internal/rfc"
	"pilotrf/internal/workloads"
)

// updateGoldens regenerates the design-refactor golden files when set:
//
//	go test ./internal/sim -run TestDesignRefactorGoldens -update-goldens
var updateGoldens = flag.Bool("update-goldens", false, "rewrite the design-refactor golden files")

// schemeName maps a paper design to its registered scheme name, which is
// also its golden file basename.
func schemeName(d regfile.Design) string {
	switch d {
	case regfile.DesignMonolithicSTV:
		return "mrf-stv"
	case regfile.DesignMonolithicNTV:
		return "mrf-ntv"
	case regfile.DesignPartitioned:
		return "part"
	default:
		return "part-adaptive"
	}
}

// goldenStats is the deterministic run summary each golden pins: timing,
// access routing, and the bit-exact ledger totals. Any change to issue
// order, partition routing, or energy pricing shows up here.
type goldenStats struct {
	Design       string     `json:"design"`
	Workload     string     `json:"workload"`
	Cycles       int64      `json:"cycles"`
	WarpInstrs   uint64     `json:"warp_instrs"`
	ThreadInstrs uint64     `json:"thread_instrs"`
	RegReads     uint64     `json:"reg_reads"`
	RegWrites    uint64     `json:"reg_writes"`
	PartAccesses [4]uint64  `json:"part_accesses"`
	FRFShare     float64    `json:"frf_share"`
	DynamicPJ    float64    `json:"dynamic_pj"`
	LeakagePJ    float64    `json:"leakage_pj"`
	PerAccessPJ  [4]float64 `json:"per_access_pj"`
	RecEvents    int        `json:"recorder_events"`
}

// TestDesignRefactorGoldens pins the pre-refactor behaviour of all four
// legacy designs: a fixed workload's stats summary (JSON) and its full
// flight recording (NDJSON) must stay byte-identical through the design
// plug-in refactor. The goldens were captured before internal/design
// existed, so a match proves the refactor is observably pure.
func TestDesignRefactorGoldens(t *testing.T) {
	w, err := workloads.ByName("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Scale(0.02)
	for _, d := range []regfile.Design{
		regfile.DesignMonolithicSTV, regfile.DesignMonolithicNTV,
		regfile.DesignPartitioned, regfile.DesignPartitionedAdaptive,
	} {
		// The goldens predate internal/design, so a byte-identical run
		// proves the whole scheme path is behaviourally transparent.
		checkRunGoldens(t, schemeConfig(t, schemeName(d)), w, schemeName(d))
	}
}

// TestPolicyGoldens pins the LRR and fetch-group schedulers, which no
// other golden covers (GTO and TL are pinned through the design and RFC
// goldens): part-adaptive on sgemm and nw, stats and flight recording.
// At scale 0.02 a scheduler owns at most three warps, so the fetch
// groups hold one warp each; the default four would make one group and
// repeat the LRR run.
func TestPolicyGoldens(t *testing.T) {
	for _, name := range []string{"sgemm", "nw"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		w = w.Scale(0.02)
		for _, p := range []Policy{PolicyLRR, PolicyFetchGroup} {
			cfg := schemeConfig(t, "part-adaptive")
			cfg.Policy = p
			cfg.FetchGroupWarps = 1
			checkRunGoldens(t, cfg, w, "policy-"+strings.ToLower(p.String())+"-"+name)
		}
	}
}

// checkRunGoldens runs w on cfg with an energy ledger and a flight
// recorder attached and checks the run's goldenStats and its recording
// against base.stats.json and base.flightrec.ndjson.
func checkRunGoldens(t *testing.T, cfg Config, w workloads.Workload, base string) {
	t.Helper()
	d := cfg.RF.Design
	led := energy.NewLedger(d, 0)
	cfg.Energy = led
	rec := NewFlightRecorder(&cfg, "design-golden", 0)
	cfg.Record = rec
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", base, err)
	}
	rs, err := g.RunKernels(w.Name, w.Kernels)
	if err != nil {
		t.Fatalf("%s: %v", base, err)
	}
	gs := goldenStats{
		Design:       d.String(),
		Workload:     w.Name,
		Cycles:       rs.TotalCycles(),
		PartAccesses: rs.PartAccesses(),
		FRFShare:     rs.FRFShare(),
		DynamicPJ:    led.DynamicPJ(),
		LeakagePJ:    led.LeakagePJ(),
		PerAccessPJ:  led.PerAccessPJ(),
		RecEvents:    rec.Len(),
	}
	for i := range rs.Kernels {
		gs.WarpInstrs += rs.Kernels[i].WarpInstrs
		gs.ThreadInstrs += rs.Kernels[i].ThreadInstrs
		gs.RegReads += rs.Kernels[i].RegReads
		gs.RegWrites += rs.Kernels[i].RegWrites
	}
	statsJSON, err := json.MarshalIndent(gs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	statsJSON = append(statsJSON, '\n')
	var flight bytes.Buffer
	if err := rec.Log().WriteNDJSON(&flight); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "goldens", base+".stats.json"), statsJSON)
	checkGolden(t, filepath.Join("testdata", "goldens", base+".flightrec.ndjson"), flight.Bytes())
}

// rivalStats is the run summary each rival-scheme golden pins: timing,
// access routing, the RFC and gating counters the scheme's settings
// produce, and the scheme's own energy pricing of the run.
type rivalStats struct {
	Scheme       string             `json:"scheme"`
	Workload     string             `json:"workload"`
	Cycles       int64              `json:"cycles"`
	PartAccesses [4]uint64          `json:"part_accesses"`
	RFC          rfc.Stats          `json:"rfc"`
	Gating       design.GatingStats `json:"gating"`
	Energy       energy.Report      `json:"energy"`
}

// TestRivalSchemeGoldens pins the rival schemes' cache and gating
// counters and their priced energy on the same sgemm run as
// TestDesignRefactorGoldens, so a change to how a scheme's settings
// reach the SM must leave every counter byte-identical.
func TestRivalSchemeGoldens(t *testing.T) {
	w, err := workloads.ByName("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Scale(0.02)
	for _, name := range []string{"rfc", "rfc-hints", "greener"} {
		sch := design.MustLookup(name)
		g, err := New(schemeConfig(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rs, err := g.RunKernels(w.Name, w.Kernels)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := json.MarshalIndent(rivalStats{
			Scheme:       name,
			Workload:     w.Name,
			Cycles:       rs.TotalCycles(),
			PartAccesses: rs.PartAccesses(),
			RFC:          rs.RFCTotals(),
			Gating:       rs.GatingTotals(),
			Energy:       sch.Energy(sch.DefaultKnobs(), rs.DesignRun()),
		}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("testdata", "goldens", name+".stats.json"), append(got, '\n'))
	}
}

// checkGolden compares got against the golden file, rewriting it under
// -update-goldens.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-goldens): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output differs from pre-refactor golden (%d bytes vs %d)", path, len(got), len(want))
	}
}
