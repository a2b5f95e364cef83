package sim

import (
	"pilotrf/internal/perfscope"
)

// smPerf is the per-SM perfscope state, allocated only when Config.Perf
// is set. The per-cycle path does plain integer arithmetic on this
// struct — no locks, no allocations; the shared profiler is only
// touched once, at kernel drain.
type smPerf struct {
	p    *perfscope.Profiler
	wall bool

	census perfscope.Census
	phase  [perfscope.NumPhases]int64

	// Per-cycle activity marks, reset by censusCycle: counts of events
	// fired, bank transactions served, and collectors dispatched this
	// cycle. Any of them nonzero makes the cycle unskippable.
	fired      uint32
	bankOps    uint32
	dispatched uint32
}

// newSMPerf builds the perfscope state for one SM.
func newSMPerf(p *perfscope.Profiler) *smPerf {
	return &smPerf{p: p, wall: p.WallClock()}
}

// begin opens a tick's timing window; it reports 0 when wall-clock
// profiling is off so lap becomes a no-op chain.
func (pf *smPerf) begin() int64 {
	if !pf.wall {
		return 0
	}
	return perfscope.Now()
}

// lap charges the time since t0 to the phase and returns the new mark.
func (pf *smPerf) lap(ph perfscope.Phase, t0 int64) int64 {
	if !pf.wall {
		return 0
	}
	t := perfscope.Now()
	pf.phase[ph] += t - t0
	return t
}

// censusCycle counts the cycle that just ended, as skippable when
// nothing issued, fired, was served or dispatched and a scheduled event
// is pending: the next state change is then at a known cycle.
func (s *sm) censusCycle() {
	pf := s.pf
	pf.census.SMCycles++
	if s.issuedEpoch == 0 && pf.fired == 0 && pf.bankOps == 0 && pf.dispatched == 0 && s.events.n > 0 {
		pf.census.Skippable++
	}
	pf.fired, pf.bankOps, pf.dispatched = 0, 0, 0
}

// foldPerf pushes this SM's accumulated census and phase timings into
// the shared profiler (called once, at kernel drain).
func (s *sm) foldPerf() {
	s.pf.p.Fold(s.pf.census, s.pf.phase)
}
