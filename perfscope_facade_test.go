package pilotrf

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pilotrf/internal/perfscope"
)

// TestPerfscopeFacade: EnablePerfscope collects a census through the
// public API, its skippable cycles are a share of the observed cycles,
// profiling does not perturb timing, and the report round-trips through
// ReadPerfReport.
func TestPerfscopeFacade(t *testing.T) {
	plain := smallSim(t, 1)
	base, err := plain.RunBenchmark("sgemm")
	if err != nil {
		t.Fatal(err)
	}

	s := smallSim(t, 1)
	p := s.EnablePerfscope(false)
	res, err := s.RunBenchmark("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles() != base.Cycles() {
		t.Errorf("profiling changed cycles %d -> %d", base.Cycles(), res.Cycles())
	}
	c := p.Census()
	if c.SMCycles == 0 {
		t.Fatal("profiler observed nothing")
	}
	if c.Skippable == 0 || c.Skippable > c.SMCycles {
		t.Errorf("census skippable cycles not a share of SMCycles: %+v", c)
	}

	entry := perfscope.NewEntry("sgemm", "part-adaptive", p)
	report := perfscope.NewReport([]PerfEntry{entry})
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "perf.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPerfReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 1 || back.Entries[0].Census != c {
		t.Errorf("report round trip lost the census: %+v", back.Entries)
	}
}
