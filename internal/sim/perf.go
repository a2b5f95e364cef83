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
	// cycle. Any of them nonzero makes a zero-issue cycle
	// active-no-issue rather than skippable.
	fired      uint32
	bankOps    uint32
	dispatched uint32
	// inSkipRun tracks whether the previous cycle was skippable, so the
	// census counts maximal skip blocks (jump opportunities), not just
	// skippable cycles.
	inSkipRun bool
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

// censusCycle classifies the cycle that just ended. Priority order:
// issue wins; any serviced work (event fired, bank transaction, or
// collector dispatch) makes the cycle active; otherwise a pending
// scheduled event means the next state change is at a known cycle —
// exactly the jump an event-driven loop would take — and an empty event
// queue means the release is not locally computable (another SM's
// barrier partner, or a genuinely idle tail).
func (s *sm) censusCycle() {
	pf := s.pf
	c := &pf.census
	c.SMCycles++
	skip := false
	switch {
	case s.issuedEpoch > 0:
		c.Busy++
	case pf.fired > 0 || pf.bankOps > 0 || pf.dispatched > 0:
		c.ActiveNoIssue++
	case s.events.n > 0:
		c.Skippable++
		skip = true
		if !pf.inSkipRun {
			c.SkipRuns++
		}
	default:
		c.StalledUnknown++
	}
	pf.inSkipRun = skip
	pf.fired, pf.bankOps, pf.dispatched = 0, 0, 0
}

// foldPerf pushes this SM's accumulated census and phase timings into
// the shared profiler (called once, at kernel drain).
func (s *sm) foldPerf() {
	s.pf.p.Fold(s.pf.census, s.pf.phase)
}
