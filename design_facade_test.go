package pilotrf

import (
	"math"
	"reflect"
	"testing"

	"pilotrf/internal/energy"
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
	if s.Config().RF.RFCEntries == 0 {
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

// TestSchemeSimulatorPricesByScheme: a scheme-built simulator prices
// every run with its scheme's own energy model, for every registered
// scheme and whatever opts.Design says.
func TestSchemeSimulatorPricesByScheme(t *testing.T) {
	paper := PaperOptions()
	paper.SMs, paper.Scale = 1, 0.02
	for _, opts := range []Options{{SMs: 1, Scale: 0.02}, paper} {
		for _, sch := range AllSchemes() {
			k := sch.DefaultKnobs()
			s, err := NewSchemeSimulator(sch, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunBenchmark("sgemm")
			if err != nil {
				t.Fatal(err)
			}
			want := sch.Energy(k, res.Stats.DesignRun())
			got := res.Energy
			if got != want || got.Design != s.Config().RF.Design {
				t.Errorf("%s (opts.Design %v): priced %+v, want %+v on %v",
					sch.Name(), opts.Design, got, want, s.Config().RF.Design)
			}
			// LeakageMW is the run's average: LeakagePJ spread over its time.
			if pj := got.LeakageMW * float64(got.Cycles) / energy.ClockGHz; math.Abs(pj-got.LeakagePJ) > 1e-9*got.LeakagePJ {
				t.Errorf("%s: LeakageMW %g implies %g pJ, want %g", sch.Name(), got.LeakageMW, pj, got.LeakagePJ)
			}
		}
	}
}

// TestNewSimulatorRunsItsScheme: NewSimulator is the scheme path. Each
// Design simulates and prices exactly as its registered scheme, with
// FRFRegisters as a partitioned scheme's Size knob (so profiling
// promotes as many registers as the FRF holds); monolithic designs
// ignore FRFRegisters.
func TestNewSimulatorRunsItsScheme(t *testing.T) {
	run := func(s *Simulator, err error) Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunBenchmark("sgemm")
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, c := range []struct {
		d      Design
		scheme string
	}{
		{DesignMonolithicSTV, "mrf-stv"},
		{DesignMonolithicNTV, "mrf-ntv"},
		{DesignPartitioned, "part"},
		{DesignPartitionedAdaptive, "part-adaptive"},
	} {
		sch, ok := LookupScheme(c.scheme)
		if !ok {
			t.Fatalf("%s not registered", c.scheme)
		}
		for _, n := range []int{2, 4, 6} {
			opts := PaperOptions()
			opts.SMs, opts.Scale, opts.Design, opts.FRFRegisters = 1, 0.02, c.d, n
			var k DesignKnobs
			if c.d.Partitioned() {
				k.Size = n
			}
			got := run(NewSimulator(opts))
			want := run(NewSchemeSimulator(sch, k, opts))
			if !reflect.DeepEqual(got.Stats, want.Stats) || got.Energy != want.Energy {
				t.Errorf("%v with %d FRF registers: %d cycles, %+v; %s at %s: %d cycles, %+v",
					c.d, n, got.Cycles(), got.Energy, c.scheme, k, want.Cycles(), want.Energy)
			}
		}
	}
}

// TestNewSimulatorRejectsUnknownDesign: a Design with no registered
// scheme is an error at construction, not a panic when a run is priced.
func TestNewSimulatorRejectsUnknownDesign(t *testing.T) {
	if s, err := NewSimulator(Options{Design: Design(9)}); err == nil || s != nil {
		t.Fatalf("NewSimulator(Design 9) = %v, %v; want an error", s, err)
	}
}

// TestNewSimulatorRejectsUnknownEnums: an unknown Scheduler or
// Profiling technique is an error at construction, not a panic once a
// run starts or a silent fallback to static-first-n.
func TestNewSimulatorRejectsUnknownEnums(t *testing.T) {
	sched, prof := PaperOptions(), PaperOptions()
	sched.Scheduler, prof.Profiling = Scheduler(9), Technique(9)
	for name, opts := range map[string]Options{"scheduler": sched, "profiling": prof} {
		opts.SMs, opts.Scale = 1, 0.02
		if _, err := NewSimulator(opts); err == nil {
			t.Errorf("NewSimulator accepted %s 9", name)
		}
	}
}
