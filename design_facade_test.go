package pilotrf

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/energy"
	"pilotrf/internal/sim"
)

// TestSchemeRegistryFacade: SchemeNames lists the paper's four designs
// and the rivals, with mrf-stv (the baseline every report normalizes
// against) first.
func TestSchemeRegistryFacade(t *testing.T) {
	names := SchemeNames()
	if len(names) < 7 {
		t.Fatalf("%d registered schemes, want >= 7", len(names))
	}
	if names[0] != "mrf-stv" {
		t.Errorf("first registered scheme = %q, want mrf-stv", names[0])
	}
}

// TestSchemeSimulatorPricesByScheme: NewSimulator runs every registered
// scheme by name, at each point of its knob grid (the first is the
// default). Its config is the default GPU with the options' SMs,
// profiling and scheduler, then the scheme's settings at those knobs,
// and it prices each run with the scheme's own energy model.
func TestSchemeSimulatorPricesByScheme(t *testing.T) {
	for _, name := range SchemeNames() {
		sch := design.MustLookup(name)
		for _, k := range sch.Grid() {
			opts := PaperOptions()
			opts.SMs, opts.Scale, opts.Scheme, opts.Knobs = 1, 0.02, name, k
			s, err := NewSimulator(opts)
			if err != nil {
				t.Fatalf("%s at %s: %v", name, k, err)
			}
			want := sim.DefaultConfig()
			want.NumSMs, want.Profiling, want.Policy = 1, opts.Profiling, opts.Scheduler
			if want, err = want.WithScheme(sch, k); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*s.Config(), want) {
				t.Errorf("%s at %s: config %+v, want %+v", name, k, *s.Config(), want)
			}
			res, err := s.RunBenchmark("sgemm")
			if err != nil {
				t.Fatal(err)
			}
			got := res.Energy
			if wantE := sch.Energy(k, res.Stats.DesignRun()); got != wantE || got.Design != want.RF.Design {
				t.Errorf("%s at %s: priced %+v, want %+v on %v", name, k, got, wantE, want.RF.Design)
			}
			// LeakageMW is the run's average: LeakagePJ spread over its time.
			if pj := got.LeakageMW * float64(got.Cycles) / energy.ClockGHz; math.Abs(pj-got.LeakagePJ) > 1e-9*got.LeakagePJ {
				t.Errorf("%s at %s: LeakageMW %g implies %g pJ, want %g", name, k, got.LeakageMW, pj, got.LeakagePJ)
			}
		}
	}
}

// TestNewSimulatorHonoursScheduler: the options' scheduler runs unless
// the scheme mandates its own; the RFC schemes run two-level.
func TestNewSimulatorHonoursScheduler(t *testing.T) {
	for _, c := range []struct {
		scheme string
		sched  Scheduler
		want   Scheduler
	}{
		{"mrf-stv", SchedulerLRR, SchedulerLRR},
		{"mrf-stv", SchedulerGTO, SchedulerGTO},
		{"part-adaptive", SchedulerLRR, SchedulerLRR},
		{"part-adaptive", SchedulerGTO, SchedulerGTO},
		{"rfc", SchedulerLRR, SchedulerTL},
		{"rfc", SchedulerGTO, SchedulerTL},
		{"rfc-hints", SchedulerLRR, SchedulerTL},
		{"rfc-hints", SchedulerGTO, SchedulerTL},
	} {
		s, err := NewSimulator(Options{SMs: 1, Scheme: c.scheme, Scheduler: c.sched})
		if err != nil {
			t.Fatalf("%s: %v", c.scheme, err)
		}
		if got := s.Config().Policy; got != c.want {
			t.Errorf("%s asked for %v runs %v, want %v", c.scheme, c.sched, got, c.want)
		}
	}
}

// TestNewSimulatorRejectsUnknownDesign: a scheme name the registry does
// not hold is an error at construction that lists the valid names, and
// so is a knob the scheme cannot take.
func TestNewSimulatorRejectsUnknownDesign(t *testing.T) {
	s, err := NewSimulator(Options{Scheme: "nonesuch"})
	if err == nil || s != nil {
		t.Fatalf("NewSimulator(nonesuch) = %v, %v; want an error", s, err)
	}
	if !strings.Contains(err.Error(), "part-adaptive") {
		t.Errorf("unknown-scheme error %q does not list the valid names", err)
	}
	for _, opts := range []Options{
		{Scheme: "part", Knobs: DesignKnobs{Size: 99}},
		{Scheme: "mrf-stv", Knobs: DesignKnobs{Size: 4}},
	} {
		if _, err := NewSimulator(opts); err == nil {
			t.Errorf("NewSimulator accepted %s at %s", opts.Scheme, opts.Knobs)
		}
	}
}

// TestNewSimulatorRejectsUnknownEnums: under every registered scheme,
// an unknown Scheduler or Profiling technique is an error at
// construction, not a panic once a run starts, a silent fallback to
// static-first-n, or a scheduler a two-level scheme quietly replaces.
func TestNewSimulatorRejectsUnknownEnums(t *testing.T) {
	for _, scheme := range SchemeNames() {
		sched, prof := PaperOptions(), PaperOptions()
		sched.Scheduler, prof.Profiling = Scheduler(9), Technique(9)
		for name, opts := range map[string]Options{"scheduler": sched, "profiling": prof} {
			opts.Scheme, opts.SMs, opts.Scale = scheme, 1, 0.02
			if _, err := NewSimulator(opts); err == nil {
				t.Errorf("NewSimulator accepted %s 9 under %s", name, scheme)
			}
		}
	}
}
