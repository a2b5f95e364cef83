package sim

import (
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/fault"
	"pilotrf/internal/kernel"
	"pilotrf/internal/perfscope"
	"pilotrf/internal/stats"
)

// loadSM builds the only SM of a one-SM run of k and fills it with CTAs
// as RunKernel does; ticking it until it is no longer busy runs the
// kernel.
func loadSM(tb testing.TB, cfg *Config, k *kernel.Kernel) *sm {
	tb.Helper()
	if err := cfg.Validate(); err != nil {
		tb.Fatal(err)
	}
	ks := &KernelStats{Name: k.Prog.Name, RegHist: stats.NewHistogram(k.Prog.NumRegs)}
	run := &runState{cfg: cfg, kern: k, stats: ks}
	s, err := newSM(0, cfg, run)
	if err != nil {
		tb.Fatal(err)
	}
	for run.nextCTA < k.NumCTAs && s.residentCTAs < s.ctaCapacity() && s.freeWarpSlots() >= k.WarpsPerCTA() {
		s.launchCTA(run.nextCTA)
		run.nextCTA++
	}
	return s
}

// TestParkedWarpsCannotIssue drives one SM cycle by cycle under every
// scheme and scheduler policy, on sgemm and on nw with parity-detected
// read-path faults (barriers and retry blocks), and after every cycle
// checks each parked warp against the full scoreboard condition: a
// parked warp that could issue would be skipped wrongly.
func TestParkedWarpsCannotIssue(t *testing.T) {
	for _, wl := range []struct {
		name   string
		faults bool
	}{{"sgemm", false}, {"nw", true}} {
		w := scaledWorkload(t, wl.name, 0.05)
		for _, sch := range design.All() {
			for _, p := range []Policy{PolicyLRR, PolicyGTO, PolicyTL, PolicyFetchGroup} {
				cfg := schemeConfig(t, sch.Name())
				cfg.Policy = p
				if wl.faults {
					cfg.Protect = fault.FullParity()
					cfg.Fault = &fault.Config{Rate: 1e-9, Seed: 13, StuckAtFrac: -1, ReadPathFrac: 1}
				}
				var parked, retries uint64
				for ki := range w.Kernels {
					k := &w.Kernels[ki]
					s := loadSM(t, &cfg, k)
					for s.busy() && s.run.fatal == nil {
						if s.now > 1_000_000 {
							t.Fatalf("%s/%s/%v: kernel %d still busy at cycle %d", wl.name, sch.Name(), p, ki, s.now)
						}
						s.tick()
						parked += auditParked(t, s)
					}
					if s.run.fatal != nil {
						t.Fatalf("%s/%s/%v: %v", wl.name, sch.Name(), p, s.run.fatal)
					}
					if s.inj != nil {
						retries += s.inj.Stats().DetectedRetry
					}
				}
				if parked == 0 {
					t.Errorf("%s/%s/%v: no warp was ever parked", wl.name, sch.Name(), p)
				}
				if wl.faults && retries == 0 {
					t.Errorf("%s/%s/%v: no parity retry blocked a warp", wl.name, sch.Name(), p)
				}
			}
		}
	}
}

// auditParked fails the test if a parked warp of s could issue, and
// returns how many warps are parked.
func auditParked(t *testing.T, s *sm) uint64 {
	t.Helper()
	var n uint64
	for _, sc := range s.schedulers {
		for i := range sc.slots {
			if !sc.isParked(i) {
				continue
			}
			n++
			w := s.warps[sc.slots[i]]
			if w == nil {
				t.Fatalf("cycle %d: empty slot %d is parked", s.now, sc.slots[i])
			}
			if !scoreboardHazard(w, s.run.kern.Prog.At(w.pc())) {
				t.Fatalf("cycle %d: warp in slot %d is parked with no scoreboard hazard at pc %d",
					s.now, w.slot, w.pc())
			}
		}
	}
	return n
}

// BenchmarkIssue prices the issue phase, scheduleIssue on every
// scheduler, of an SM loaded with sgemm's CTAs (scale 0.1, part-adaptive,
// GTO). An iteration is one whole SM cycle, so warps keep issuing,
// waiting and retiring as in a run, and a drained SM is loaded again.
// The SM's wall-clock phase timing splits out the issue phase, which is
// reported as issue-ns/cycle.
func BenchmarkIssue(b *testing.B) {
	w := scaledWorkload(b, "sgemm", 0.1)
	cfg := schemeConfig(b, "part-adaptive")
	cfg.Perf = perfscope.New(true)
	k := &w.Kernels[0]
	s := loadSM(b, &cfg, k)
	var issueNS int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.busy() {
			issueNS += s.pf.phase[perfscope.PhaseIssue]
			s = loadSM(b, &cfg, k)
		}
		s.tick()
	}
	issueNS += s.pf.phase[perfscope.PhaseIssue]
	b.ReportMetric(float64(issueNS)/float64(b.N), "issue-ns/cycle")
}
