package energy

import (
	"strings"
	"testing"

	"pilotrf/internal/isa"
	"pilotrf/internal/regfile"
)

func TestPerAccessTableMatchesDynamicPJ(t *testing.T) {
	parts := [4]uint64{100, 200, 300, 400}
	for _, d := range []regfile.Design{
		regfile.DesignMonolithicSTV, regfile.DesignMonolithicNTV,
		regfile.DesignPartitioned, regfile.DesignPartitionedAdaptive,
	} {
		tab := PerAccessTable(d)
		var sum float64
		for p, n := range parts {
			sum += float64(n) * tab[p]
		}
		if want := DynamicPJ(d, parts); sum != want {
			t.Errorf("%v: table pricing %v != DynamicPJ %v", d, sum, want)
		}
	}
}

// NewLedger allocates the ledger and nothing else: the design table it
// prices from is built by value.
func TestNewLedgerAllocatesOnce(t *testing.T) {
	for d := regfile.DesignMonolithicSTV; d <= regfile.DesignPartitionedAdaptive; d++ {
		if a := testing.AllocsPerRun(100, func() { _ = NewLedger(d, 0) }); a != 1 {
			t.Errorf("%v: NewLedger made %v allocations, want 1", d, a)
		}
	}
}

func TestLedgerPricesThroughAggregateFormulas(t *testing.T) {
	d := regfile.DesignPartitionedAdaptive
	led := NewLedger(d, 50)
	k := led.BeginKernel()
	if k != 1 {
		t.Fatalf("first kernel seq = %d", k)
	}
	led.AddEpoch(EpochCharge{Kernel: k, SM: 0, Cycle: 49, Cycles: 50,
		Accesses: [4]uint64{0, 10, 5, 20}})
	led.AddEpoch(EpochCharge{Kernel: k, SM: 1, Cycle: 72, Cycles: 73,
		Accesses: [4]uint64{0, 7, 0, 11}})
	led.AddHeat([]HeatCell{
		{Kernel: k, SM: 0, Warp: 0, Reg: isa.R(2), Accesses: [4]uint64{0, 17, 5, 0}},
		{Kernel: k, SM: 1, Warp: 3, Reg: isa.R(9), Accesses: [4]uint64{0, 0, 0, 31}},
	})
	led.EndKernel(73)

	parts := [4]uint64{0, 17, 5, 31}
	if err := led.CheckConservation(parts, 73); err != nil {
		t.Errorf("conservation: %v", err)
	}
	if got, want := led.DynamicPJ(), DynamicPJ(d, parts); got != want {
		t.Errorf("DynamicPJ = %v, want %v", got, want)
	}
	if got, want := led.LeakagePJ(), LeakagePJ(d, 73); got != want {
		t.Errorf("LeakagePJ = %v, want %v", got, want)
	}
	if got, want := led.TotalPJ(), led.DynamicPJ()+led.LeakagePJ(); got != want {
		t.Errorf("TotalPJ = %v, want %v", got, want)
	}
	rep := led.Report()
	if rep.DynamicPJ != led.DynamicPJ() || rep.Cycles != 73 {
		t.Errorf("Report = %+v", rep)
	}

	// Mismatches must be detected, not smoothed over.
	if err := led.CheckConservation([4]uint64{0, 17, 5, 30}, 73); err == nil {
		t.Error("access mismatch not detected")
	}
	if err := led.CheckConservation(parts, 72); err == nil {
		t.Error("cycle mismatch not detected")
	}
}

func TestLedgerDefaultEpochFollowsAdaptiveConfig(t *testing.T) {
	led := NewLedger(regfile.DesignPartitionedAdaptive, 0)
	if got, want := led.EpochCycles(), regfile.DefaultAdaptiveConfig().EpochCycles; got != want {
		t.Errorf("default epoch = %d, want %d", got, want)
	}
}

func TestLedgerExportShapes(t *testing.T) {
	d := regfile.DesignPartitioned
	led := NewLedger(d, 10)
	k := led.BeginKernel()
	led.AddEpoch(EpochCharge{Kernel: k, Cycle: 9, Cycles: 10, Accesses: [4]uint64{0, 3, 0, 4}})
	led.AddHeat([]HeatCell{{Kernel: k, Warp: 1, Reg: isa.R(0), Accesses: [4]uint64{0, 3, 0, 4}}})
	led.EndKernel(10)

	var sb strings.Builder
	if err := led.WriteEpochCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("epoch CSV lines = %d, want 3", len(lines))
	}
	if want := len(epochCSVColumns); strings.Count(lines[2], ",")+1 != want {
		t.Errorf("epoch row fields = %d, want %d", strings.Count(lines[2], ",")+1, want)
	}

	sb.Reset()
	if err := led.WriteHeatmapCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("heatmap CSV lines = %d, want 3", len(lines))
	}
	if want := len(heatmapCSVColumns); strings.Count(lines[2], ",")+1 != want {
		t.Errorf("heatmap row fields = %d, want %d", strings.Count(lines[2], ",")+1, want)
	}

	sb.Reset()
	if err := led.WriteHeatmapJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"schema"`) {
		t.Error("heatmap JSON missing schema field")
	}
}
