package pilotrf

import (
	"strings"
	"testing"
)

func TestEnergyLedgerFacade(t *testing.T) {
	sim, err := NewSimulator(Options{SMs: 1, Scheme: "part-adaptive",
		Profiling: ProfileHybrid, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	led := sim.EnableEnergyLedger(0)
	audit := sim.EnableSwapAudit()

	res, err := sim.RunBenchmark("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	if err := led.CheckConservation(res.Stats.PartAccesses(), res.Cycles()); err != nil {
		t.Errorf("facade ledger conservation: %v", err)
	}
	if led.DynamicPJ() != res.Energy.DynamicPJ {
		t.Errorf("ledger dynamic %v != result report %v", led.DynamicPJ(), res.Energy.DynamicPJ)
	}
	if audit.Len() == 0 {
		t.Error("audit log recorded no placements")
	}

	var sb strings.Builder
	if err := led.WriteHeatmapJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"cells"`) {
		t.Error("heatmap JSON missing cells")
	}
	sb.Reset()
	if err := audit.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "technique") {
		t.Error("audit CSV missing header")
	}
}
