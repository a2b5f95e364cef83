package sim

import (
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/kernel"
	"pilotrf/internal/perfscope"
	"pilotrf/internal/stats"
)

// perfRun executes k under cfg with a fresh profiler attached.
func perfRun(t *testing.T, cfg Config, k *kernel.Kernel, wall bool) (KernelStats, *perfscope.Profiler) {
	t.Helper()
	p := perfscope.New(wall)
	cfg.Perf = p
	return mustRun(t, cfg, k), p
}

// TestPerfscopeDoesNotPerturbTiming is the acceptance gate: attaching
// the profiler — census and wall-clock both — must leave cycle and
// access counts bit-identical on every registered design scheme.
func TestPerfscopeDoesNotPerturbTiming(t *testing.T) {
	k := seedKernel(t)
	for _, sch := range design.All() {
		cfg, err := testConfig().WithScheme(sch, sch.DefaultKnobs())
		if err != nil {
			t.Fatal(err)
		}
		plain := mustRun(t, cfg, k)
		profiled, p := perfRun(t, cfg, k, true)
		if plain.Cycles != profiled.Cycles {
			t.Errorf("%s: profiling changed cycles %d -> %d", sch.Name(), plain.Cycles, profiled.Cycles)
		}
		if plain.RegReads != profiled.RegReads || plain.RegWrites != profiled.RegWrites {
			t.Errorf("%s: profiling changed access counts", sch.Name())
		}
		if plain.PartAccesses != profiled.PartAccesses {
			t.Errorf("%s: profiling changed partition routing", sch.Name())
		}
		if p.Census().SMCycles == 0 {
			t.Errorf("%s: profiler observed nothing", sch.Name())
		}
	}
}

// TestPerfscopeCensusPartitions asserts the census invariants on a real
// run: the four classes partition SMCycles exactly, skip runs never
// exceed skippable cycles, a busy kernel has busy cycles, and the
// census agrees with the telemetry stall attribution's total.
func TestPerfscopeCensusPartitions(t *testing.T) {
	k := seedKernel(t)
	cfg := schemeConfig(t, "part-adaptive")
	cfg.Stalls = true
	ks, p := perfRun(t, cfg, k, false)
	c := p.Census()
	if got := c.Busy + c.ActiveNoIssue + c.Skippable + c.StalledUnknown; got != c.SMCycles {
		t.Errorf("census classes sum to %d, want SMCycles %d", got, c.SMCycles)
	}
	if c.SkipRuns > c.Skippable {
		t.Errorf("skip runs %d exceed skippable cycles %d", c.SkipRuns, c.Skippable)
	}
	if c.Busy == 0 {
		t.Error("census saw no busy cycles on a real kernel")
	}
	if c.SMCycles != ks.SMCycles {
		t.Errorf("census SMCycles %d != telemetry SMCycles %d", c.SMCycles, ks.SMCycles)
	}
	// Busy in the census means "issued this cycle" — the same predicate
	// telemetry's BusyCycles counts.
	if c.Busy != ks.BusyCycles {
		t.Errorf("census busy %d != telemetry busy %d", c.Busy, ks.BusyCycles)
	}
}

// TestPerfscopeCensusDeterministic: two census-only runs of the same
// configuration fold to identical censuses (the property the
// byte-reproducible report rests on).
func TestPerfscopeCensusDeterministic(t *testing.T) {
	k := seedKernel(t)
	cfg := schemeConfig(t, "part-adaptive")
	_, p1 := perfRun(t, cfg, k, false)
	_, p2 := perfRun(t, cfg, k, true) // wall-clock must not change the census
	if p1.Census() != p2.Census() {
		t.Errorf("censuses differ across runs:\n%+v\n%+v", p1.Census(), p2.Census())
	}
}

// TestPerfscopeWallClock: with wall-clock on, the timed phases cover
// the tick (issue and events always run, so they must be nonzero on a
// real kernel); census-only profilers time nothing.
func TestPerfscopeWallClock(t *testing.T) {
	k := seedKernel(t)
	_, wall := perfRun(t, testConfig(), k, true)
	ns := wall.PhaseNS()
	if ns[perfscope.PhaseIssue] <= 0 || ns[perfscope.PhaseEvents] <= 0 {
		t.Errorf("wall-clock phases not timed: %v", ns)
	}
	_, census := perfRun(t, testConfig(), k, false)
	if ns := census.PhaseNS(); ns != ([perfscope.NumPhases]int64{}) {
		t.Errorf("census-only profiler recorded wall time: %v", ns)
	}
}

// perfAllocSM builds an SM under cfg, runs its kernel to completion
// (so queue/heap capacity growth is behind us), and returns it ready
// for steady-state tick measurements.
func perfAllocSM(t *testing.T, cfg *Config) *sm {
	t.Helper()
	ks := KernelStats{RegHist: stats.NewHistogram(4)}
	run := &runState{cfg: cfg, kern: benchKernel(t), stats: &ks}
	s, err := newSM(0, cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	s.launchCTA(0)
	for i := 0; s.busy(); i++ {
		s.tick()
		if i > 10000 {
			t.Fatal("bench kernel did not drain")
		}
	}
	return s
}

// TestPerfDisabledZeroAlloc asserts the disabled path — one nil check
// per hook — allocates nothing per cycle, and that the enabled path
// (wall-clock laps plus the census) is allocation-free too: the
// profiler must not slow the runs it measures.
func TestPerfDisabledZeroAlloc(t *testing.T) {
	cfg := testConfig()
	s := perfAllocSM(t, &cfg)
	if s.pf != nil {
		t.Fatal("profiler attached without Config.Perf")
	}
	if a := testing.AllocsPerRun(1000, func() {
		s.tick()
	}); a != 0 {
		t.Errorf("disabled perfscope tick allocates %.1f per cycle, want 0", a)
	}

	cfg2 := testConfig()
	cfg2.Perf = perfscope.New(true)
	s2 := perfAllocSM(t, &cfg2)
	if s2.pf == nil {
		t.Fatal("profiler not attached")
	}
	if a := testing.AllocsPerRun(1000, func() {
		s2.tick()
	}); a != 0 {
		t.Errorf("enabled perfscope tick allocates %.1f per cycle, want 0", a)
	}
}
