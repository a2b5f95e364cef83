package pilotrf

import (
	"context"
	"testing"
)

// TestSchemeRegistryFacade checks the design-scheme re-exports: the
// registry is reachable, mrf-stv leads it (the baseline every report
// normalizes against), and lookups round-trip.
func TestSchemeRegistryFacade(t *testing.T) {
	schemes := AllSchemes()
	if len(schemes) < 6 {
		t.Fatalf("%d registered schemes, want >= 6", len(schemes))
	}
	names := SchemeNames()
	if len(names) != len(schemes) {
		t.Fatalf("SchemeNames has %d entries, AllSchemes %d", len(names), len(schemes))
	}
	if names[0] != "mrf-stv" {
		t.Errorf("first registered scheme = %q, want mrf-stv", names[0])
	}
	for i, n := range names {
		sch, ok := LookupScheme(n)
		if !ok {
			t.Fatalf("LookupScheme(%q) missed a listed scheme", n)
		}
		if sch.Name() != n || schemes[i].Name() != n {
			t.Errorf("scheme %d: lookup %q, all %q, want %q", i, sch.Name(), schemes[i].Name(), n)
		}
	}
	if _, ok := LookupScheme("nonesuch"); ok {
		t.Error("LookupScheme accepted an unknown name")
	}
}

// TestNewSchemeSimulator runs a benchmark through a scheme-configured
// facade simulator and checks the scheme's settings actually took.
func TestNewSchemeSimulator(t *testing.T) {
	sch, ok := LookupScheme("rfc")
	if !ok {
		t.Fatal("rfc scheme not registered")
	}
	s, err := NewSchemeSimulator(sch, sch.DefaultKnobs(), Options{SMs: 1, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().RFC.EntriesPerWarp == 0 {
		t.Error("rfc scheme simulator has no RFC")
	}
	res, err := s.RunBenchmark("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalCycles() == 0 {
		t.Error("scheme simulator ran zero cycles")
	}

	if _, err := NewSchemeSimulator(sch, DesignKnobs{Size: 99}, Options{}); err == nil {
		t.Error("NewSchemeSimulator accepted an out-of-range knob")
	}
}

// TestRunDSEFacade sweeps two schemes over one workload through the
// facade and sanity-checks the Pareto-marked report.
func TestRunDSEFacade(t *testing.T) {
	rep, err := RunDSE(context.Background(), DSEOptions{
		Schemes:   []string{"mrf-stv", "mrf-ntv"},
		Workloads: []string{"sgemm"},
		Scale:     0.02,
		SMs:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("%d points, want 2", len(rep.Points))
	}
	if rep.Baseline != "mrf-stv/default" {
		t.Errorf("baseline = %q", rep.Baseline)
	}
	var frontier int
	for _, p := range rep.Points {
		if p.Pareto {
			frontier++
		}
	}
	if frontier == 0 {
		t.Error("no frontier points marked")
	}
}
