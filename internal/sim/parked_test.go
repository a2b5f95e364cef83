package sim

import (
	"fmt"
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/fault"
	"pilotrf/internal/kernel"
	"pilotrf/internal/perfscope"
	"pilotrf/internal/stats"
	"pilotrf/internal/workloads"
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
// audits the parked slots and the bank bookkeeping (auditParked). Each
// run is made twice: at the default CTA limit, where every CTA is
// resident from the start and a scheduler holds several warps, and at
// four CTAs per SM, where later CTAs launch into slots that earlier ones
// freed mid-kernel.
func TestParkedWarpsCannotIssue(t *testing.T) {
	for _, wl := range []struct {
		name   string
		faults bool
	}{{"sgemm", false}, {"nw", true}} {
		w := scaledWorkload(t, wl.name, 0.05)
		for _, ctas := range []int{DefaultConfig().MaxCTAsPerSM, 4} {
			for _, sch := range design.All() {
				for _, p := range []Policy{PolicyLRR, PolicyGTO, PolicyTL, PolicyFetchGroup} {
					name := fmt.Sprintf("%s/%d CTAs/%s/%v", wl.name, ctas, sch.Name(), p)
					cfg := schemeConfig(t, sch.Name())
					cfg.Policy = p
					cfg.MaxCTAsPerSM = ctas
					if wl.faults {
						cfg.Protect = fault.FullParity()
						cfg.Fault = &fault.Config{Rate: 1e-9, Seed: 13, StuckAtFrac: -1, ReadPathFrac: 1}
					}
					auditRun(t, name, &cfg, w, wl.faults)
				}
			}
		}
	}
}

// auditRun runs every kernel of w on one SM under cfg, auditing it after
// every cycle. It fails the test unless some warp was parked on a
// scoreboard hazard and, when faults are injected, some parity retry
// blocked a warp.
func auditRun(t *testing.T, name string, cfg *Config, w workloads.Workload, faults bool) {
	t.Helper()
	var parked, retries uint64
	for ki := range w.Kernels {
		k := &w.Kernels[ki]
		s := loadSM(t, cfg, k)
		for s.busy() && s.run.fatal == nil {
			if s.now > 1_000_000 {
				t.Fatalf("%s: kernel %d still busy at cycle %d", name, ki, s.now)
			}
			s.tick()
			parked += auditParked(t, name, s)
		}
		if s.run.fatal != nil {
			t.Fatalf("%s: %v", name, s.run.fatal)
		}
		if s.inj != nil {
			retries += s.inj.Stats().DetectedRetry
		}
	}
	if parked == 0 {
		t.Errorf("%s: no warp was ever parked on a scoreboard hazard", name)
	}
	if faults && retries == 0 {
		t.Errorf("%s: no parity retry blocked a warp", name)
	}
}

// auditParked fails the test, naming the run, if a parked slot of s
// could issue: a parked slot must be empty, hold a retired or stack-empty
// warp, or hold a warp with a scoreboard hazard. It also fails if the
// busy-bank mask or the queued-request count disagrees with the bank
// queues. It returns how many warps are parked on a scoreboard hazard.
func auditParked(t *testing.T, name string, s *sm) uint64 {
	t.Helper()
	var n uint64
	for _, sc := range s.schedulers {
		for i, slot := range sc.slots {
			w := s.warps[slot]
			switch {
			case !sc.isParked(i) || w == nil || w.done || w.finished():
			case scoreboardHazard(w, s.run.kern.Prog.At(w.pc())):
				n++
			default:
				t.Fatalf("%s: cycle %d: warp in slot %d is parked with no scoreboard hazard at pc %d",
					name, s.now, slot, w.pc())
			}
		}
	}
	var busy uint64
	queued := 0
	for b, bank := range s.banks {
		if len(bank.queue) > 0 {
			busy |= 1 << uint(b)
		}
		queued += len(bank.queue)
	}
	if busy != s.busyBanks || queued != s.queued {
		t.Fatalf("%s: cycle %d: busy-bank mask %#x and %d queued, want %#x and %d",
			name, s.now, s.busyBanks, s.queued, busy, queued)
	}
	return n
}

// BenchmarkIssue prices the issue phase, scheduleIssue on every
// scheduler, reported as issue-ns/cycle (see benchPhase).
func BenchmarkIssue(b *testing.B) { benchPhase(b, perfscope.PhaseIssue, "issue-ns/cycle") }

// BenchmarkTickBanks prices the bank phase, tickBanks, reported as
// banks-ns/cycle (see benchPhase).
func BenchmarkTickBanks(b *testing.B) { benchPhase(b, perfscope.PhaseBanks, "banks-ns/cycle") }

// benchPhase ticks an SM loaded with sgemm's CTAs (scale 0.1,
// part-adaptive, GTO). An iteration is one whole SM cycle, so warps keep
// issuing, waiting and retiring as in a run, and a drained SM is loaded
// again. The SM's wall-clock phase timing splits out phase, whose time
// per cycle is reported in unit.
func benchPhase(b *testing.B, phase perfscope.Phase, unit string) {
	w := scaledWorkload(b, "sgemm", 0.1)
	cfg := schemeConfig(b, "part-adaptive")
	cfg.Perf = perfscope.New(true)
	k := &w.Kernels[0]
	s := loadSM(b, &cfg, k)
	var ns int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.busy() {
			ns += s.pf.phase[phase]
			s = loadSM(b, &cfg, k)
		}
		s.tick()
	}
	ns += s.pf.phase[phase]
	b.ReportMetric(float64(ns)/float64(b.N), unit)
}
