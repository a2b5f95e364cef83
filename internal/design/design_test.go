package design

import (
	"strings"
	"testing"

	"pilotrf/internal/energy"
	"pilotrf/internal/isa"
	"pilotrf/internal/regfile"
	"pilotrf/internal/rfc"
)

func TestRegistryContents(t *testing.T) {
	want := []string{"mrf-stv", "mrf-ntv", "part", "part-adaptive", "greener", "rfc", "rfc-hints"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if len(All()) != len(want) {
		t.Errorf("All() has %d schemes, want %d", len(All()), len(want))
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	if s, err := Resolve("rfc-hints"); err != nil || s.Name() != "rfc-hints" {
		t.Errorf("Resolve(rfc-hints) = %v, %v", s, err)
	}
	_, err := Resolve("nope")
	if want := `unknown design "nope" (valid: greener, mrf-ntv, mrf-stv, part, part-adaptive, rfc, rfc-hints)`; err == nil || err.Error() != want {
		t.Errorf("Resolve(nope) error = %v, want %s", err, want)
	}
	for _, s := range All() {
		if s.Doc() == "" {
			t.Errorf("%s: empty doc", s.Name())
		}
	}
}

func TestSchemeGridsValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(s.DefaultKnobs()); err != nil {
			t.Errorf("%s: default knobs invalid: %v", s.Name(), err)
		}
		sawDefault := false
		for _, k := range s.Grid() {
			if err := s.Validate(k); err != nil {
				t.Errorf("%s: grid point %s invalid: %v", s.Name(), k, err)
			}
			if _, err := s.Settings(k); err != nil {
				t.Errorf("%s: grid point %s settings: %v", s.Name(), k, err)
			}
			if k == s.DefaultKnobs() {
				sawDefault = true
			}
		}
		if !sawDefault {
			t.Errorf("%s: grid omits the default point", s.Name())
		}
	}
}

func TestSchemeValidateRejects(t *testing.T) {
	cases := []struct {
		scheme string
		k      Knobs
	}{
		{"mrf-stv", Knobs{Size: 4}},
		{"mrf-ntv", Knobs{Voltage: "stv"}},
		{"part", Knobs{Voltage: "ntv"}},
		{"part", Knobs{Size: 17}},
		{"part-adaptive", Knobs{Size: -1}},
		{"greener", Knobs{Voltage: "mid"}},
		{"greener", Knobs{Size: 65}},
		{"rfc", Knobs{Size: 17}},
		{"rfc-hints", Knobs{Voltage: "x"}},
	}
	for _, c := range cases {
		s := MustLookup(c.scheme)
		if err := s.Validate(c.k); err == nil {
			t.Errorf("%s: Validate(%+v) accepted invalid knobs", c.scheme, c.k)
		}
		if _, err := s.Settings(c.k); err == nil {
			t.Errorf("%s: Settings(%+v) accepted invalid knobs", c.scheme, c.k)
		}
	}
}

func TestKnobsString(t *testing.T) {
	cases := []struct {
		k    Knobs
		want string
	}{
		{Knobs{}, "default"},
		{Knobs{Size: 4}, "size=4"},
		{Knobs{Voltage: "ntv"}, "vdd=ntv"},
		{Knobs{Size: 8, Voltage: "stv"}, "size=8,vdd=stv"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestLegacySchemeBases(t *testing.T) {
	bases := map[string]regfile.Design{
		"mrf-stv":       regfile.DesignMonolithicSTV,
		"mrf-ntv":       regfile.DesignMonolithicNTV,
		"part":          regfile.DesignPartitioned,
		"part-adaptive": regfile.DesignPartitionedAdaptive,
		"greener":       regfile.DesignMonolithicSTV,
		"rfc":           regfile.DesignMonolithicNTV,
		"rfc-hints":     regfile.DesignMonolithicNTV,
	}
	for name, want := range bases {
		s := MustLookup(name)
		set, err := s.Settings(s.DefaultKnobs())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if set.RF.Design != want {
			t.Errorf("%s: Settings RF design %v, want %v", name, set.RF.Design, want)
		}
		if got := s.Energy(s.DefaultKnobs(), Run{}).Design; got != want {
			t.Errorf("%s: Energy priced for %v, want %v", name, got, want)
		}
	}
	g := MustLookup("greener")
	set, err := g.Settings(Knobs{Voltage: "ntv"})
	if err != nil {
		t.Fatal(err)
	}
	if set.RF.Design != regfile.DesignMonolithicNTV || g.Energy(Knobs{Voltage: "ntv"}, Run{}).Design != regfile.DesignMonolithicNTV {
		t.Error("greener: ntv knob did not move the base design")
	}
}

func TestGatingTracker(t *testing.T) {
	tr := NewGatingTracker(1, 4, 100)
	if tr.LiveRows() != 0 {
		t.Fatalf("fresh tracker has %d live rows", tr.LiveRows())
	}
	tr.OnWrite(0, isa.R(0))
	tr.OnWrite(0, isa.R(1))
	tr.OnWrite(0, isa.R(1)) // re-write: no new wakeup
	tr.OnWrite(1, isa.R(0))
	if tr.LiveRows() != 3 {
		t.Errorf("live rows = %d, want 3", tr.LiveRows())
	}
	tr.Tick()
	st := tr.Stats()
	if st.Wakeups != 3 {
		t.Errorf("wakeups = %d, want 3", st.Wakeups)
	}
	if st.LiveRowCycles != 3 || st.GatedRowCycles != 97 {
		t.Errorf("row-cycles = %d live / %d gated, want 3/97", st.LiveRowCycles, st.GatedRowCycles)
	}
	tr.OnWarpRetire(0)
	if tr.LiveRows() != 1 {
		t.Errorf("live rows after retire = %d, want 1", tr.LiveRows())
	}
	tr.OnWrite(0, isa.R(5)) // relaunch on the freed slot wakes anew
	if tr.LiveRows() != 2 {
		t.Errorf("live rows after relaunch = %d, want 2", tr.LiveRows())
	}
}

func TestGatingTrackerGranularity(t *testing.T) {
	tr := NewGatingTracker(8, 2, 1000)
	tr.OnWrite(0, isa.R(0))
	if tr.LiveRows() != 8 {
		t.Errorf("one write at granularity 8 powers %d rows, want 8", tr.LiveRows())
	}
	tr.OnWrite(0, isa.R(7)) // same domain: no new wakeup
	tr.OnWrite(0, isa.R(8)) // next domain
	if tr.LiveRows() != 16 {
		t.Errorf("live rows = %d, want 16", tr.LiveRows())
	}
	if w := tr.Stats().Wakeups; w != 2 {
		t.Errorf("wakeups = %d, want 2", w)
	}
	tr.OnWarpRetire(0)
	if tr.LiveRows() != 0 {
		t.Errorf("live rows after retire = %d, want 0", tr.LiveRows())
	}
}

func TestGatingStatsConservation(t *testing.T) {
	tr := NewGatingTracker(4, 2, 64)
	tr.OnWrite(0, isa.R(3))
	for i := 0; i < 10; i++ {
		tr.Tick()
	}
	st := tr.Stats()
	if st.LiveRowCycles+st.GatedRowCycles != 64*10 {
		t.Errorf("row-cycles %d+%d do not cover capacity x cycles", st.LiveRowCycles, st.GatedRowCycles)
	}
	if f := st.LiveFraction(); f <= 0 || f >= 1 {
		t.Errorf("live fraction %v outside (0,1)", f)
	}
	if (GatingStats{}).LiveFraction() != 1 {
		t.Error("empty stats should report live fraction 1 (no savings)")
	}
}

func TestGreenerEnergyBeatsUngatedLeakage(t *testing.T) {
	g := MustLookup("greener")
	run := Run{
		PartAccesses: [4]uint64{1000, 0, 0, 0},
		Cycles:       10000,
		Gating:       GatingStats{LiveRowCycles: 2_000_000, GatedRowCycles: 18_000_000},
	}
	b := g.Energy(g.DefaultKnobs(), run)
	base := MustLookup("mrf-stv").Energy(Knobs{}, run)
	if b.DynamicPJ != base.DynamicPJ {
		t.Errorf("greener dynamic %v != base %v (gating is leakage-only)", b.DynamicPJ, base.DynamicPJ)
	}
	if b.LeakagePJ >= base.LeakagePJ {
		t.Errorf("greener leakage %v not below ungated %v at 10%% occupancy", b.LeakagePJ, base.LeakagePJ)
	}
	if b.LeakagePJ <= 0 {
		t.Errorf("greener leakage %v not positive", b.LeakagePJ)
	}
	// Fully-live run gates nothing beyond the residue model's periphery
	// handling: it must price at GatedLeakagePJ(d, 1, cycles).
	full := run
	full.Gating = GatingStats{LiveRowCycles: 1, GatedRowCycles: 0}
	if got, want := g.Energy(Knobs{}, full).LeakagePJ,
		energy.GatedLeakagePJ(regfile.DesignMonolithicSTV, 1, run.Cycles); got != want {
		t.Errorf("fully-live leakage %v != %v", got, want)
	}
}

func TestRFCSchemeEnergy(t *testing.T) {
	s := MustLookup("rfc-hints")
	run := Run{
		Cycles:        5000,
		TotalAccesses: 3000,
		RFC:           rfcStatsForTest(),
	}
	b := s.Energy(s.DefaultKnobs(), run)
	if b.DynamicPJ <= 0 || b.LeakagePJ <= 0 {
		t.Fatalf("rfc-hints breakdown not positive: %+v", b)
	}
	// Bypasses are priced as MRF traffic: adding bypasses must increase
	// dynamic energy.
	more := run
	more.RFC.ReadBypass += 500
	if got := s.Energy(s.DefaultKnobs(), more).DynamicPJ; got <= b.DynamicPJ {
		t.Errorf("read bypasses not priced: %v <= %v", got, b.DynamicPJ)
	}
	// A bigger cache array must not get cheaper per access... just check
	// knob plumbing: different Size changes the pricing.
	if got := s.Energy(Knobs{Size: 12}, run).DynamicPJ; got == b.DynamicPJ {
		t.Error("entries knob does not reach the energy model")
	}
}

func TestSettingsShapes(t *testing.T) {
	set, err := MustLookup("rfc-hints").Settings(Knobs{})
	if err != nil {
		t.Fatal(err)
	}
	if !set.RF.RFCHints || !set.TwoLevel {
		t.Errorf("rfc-hints settings missing cache/hints/scheduler: %+v", set)
	}
	if set.RF.RFCEntries != rfcDefEntries {
		t.Errorf("rfc-hints entries %d, want %d", set.RF.RFCEntries, rfcDefEntries)
	}
	set, err = MustLookup("rfc").Settings(Knobs{Size: 4, Voltage: "stv"})
	if err != nil {
		t.Fatal(err)
	}
	if set.RF.RFCHints || set.RF.RFCEntries != 4 {
		t.Errorf("classic rfc at size 4: %+v", set.RF)
	}
	if set.RF.Lat.MRF != 1 {
		t.Errorf("rfc@stv MRF latency %d, want 1", set.RF.Lat.MRF)
	}
	set, err = MustLookup("greener").Settings(Knobs{Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if set.RF.GatingRows != 8 {
		t.Errorf("greener gating domain %d rows, want 8", set.RF.GatingRows)
	}
	set, err = MustLookup("part").Settings(Knobs{Size: 6})
	if err != nil {
		t.Fatal(err)
	}
	if set.RF.FRFRegs != 6 {
		t.Errorf("part size knob did not move FRFRegs: %+v", set)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate", func() { Register(monolithic{name: "mrf-stv"}) })
	mustPanic("empty", func() { Register(monolithic{}) })
	mustPanic("unknown lookup", func() { MustLookup("definitely-not-registered") })
}

func TestSortedNames(t *testing.T) {
	names := SortedNames()
	for i := 1; i < len(names); i++ {
		if strings.Compare(names[i-1], names[i]) > 0 {
			t.Fatalf("SortedNames not sorted: %v", names)
		}
	}
}

// rfcStatsForTest builds a plausible RFC event mix.
func rfcStatsForTest() rfc.Stats {
	return rfc.Stats{
		ReadHits: 1500, ReadMiss: 500, Writes: 1000,
		Fills: 500, Evictions: 800, DirtyWB: 300,
		TagChecks: 3000, Flushes: 40,
	}
}
