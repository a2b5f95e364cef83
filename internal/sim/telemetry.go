package sim

import (
	"pilotrf/internal/energy"
	"pilotrf/internal/regfile"
	"pilotrf/internal/telemetry"
)

// MetricColumns is the schema of the per-epoch time series each SM
// samples into a telemetry.Recorder: one row per SM per epoch.
//
//	kernel     sequence number of the kernel within the recorder's life
//	cycle      last cycle of the epoch (kernel-local clock)
//	sm         SM id
//	issued     warp instructions issued this epoch
//	util       issued / (epoch x peak issue width)
//	mrf, frf_high, frf_low, srf
//	           bank transactions serviced per physical partition
//	bankq      mean per-bank queue depth over the epoch
//	low_power  1 when the adaptive FRF ends the epoch in low-power mode
//	busy       cycles with at least one issue
//	stall_*    zero-issue cycles charged to each cause; the stall
//	           columns sum to (epoch length - busy)
//	e_*_pj     dynamic energy charged to each partition this epoch
//	           (access deltas priced with energy.PerAccessTable), plus
//	           the SM's leakage integral over the epoch (v2 columns)
var MetricColumns = []string{
	"kernel", "cycle", "sm", "issued", "util",
	"mrf", "frf_high", "frf_low", "srf", "bankq", "low_power", "busy",
	"stall_collector_full", "stall_memory_pending", "stall_bank_conflict",
	"stall_scoreboard", "stall_barrier", "stall_pilot_drain", "stall_no_ready_warp",
	"e_mrf_pj", "e_frf_high_pj", "e_frf_low_pj", "e_srf_pj", "e_leak_pj",
}

// MetricsSchemaVersion is the version number of the per-epoch metrics
// schema; it must advance in lockstep with MetricColumns (v1 = the
// 19-column PR 1 schema, v2 adds the five energy columns).
const MetricsSchemaVersion = 2

// MetricsSchema is the versioned schema tag emitted as a "# schema:"
// comment line ahead of the metrics CSV header.
const MetricsSchema = "pilotrf-epoch-metrics/v2"

// metricsSchemaColumns maps each schema version to its column count, so
// tests can assert the header and version stay in lockstep.
var metricsSchemaColumns = map[int]int{1: 19, 2: 24}

// NewMetricsRecorder returns a telemetry recorder with the simulator's
// column schema, sampling every epochCycles (0 selects the adaptive
// FRF's default epoch length).
func NewMetricsRecorder(epochCycles int) *telemetry.Recorder {
	if epochCycles <= 0 {
		epochCycles = regfile.DefaultAdaptiveConfig().EpochCycles
	}
	rec := telemetry.NewRecorder(epochCycles, MetricColumns...)
	rec.SetSchema(MetricsSchema)
	return rec
}

// telSnap is a point-in-time copy of an SM's cumulative telemetry
// counters, kept at each epoch boundary so samples report deltas.
type telSnap struct {
	issued       uint64
	busy         uint64
	parts        [4]uint64
	bankQueueSum uint64
	stalls       telemetry.StallBreakdown
}

// smTelemetry is the per-SM observation state, allocated only when stall
// attribution or metrics sampling is enabled. The per-cycle path does
// plain integer arithmetic on this struct — no locks, no allocations;
// shared registry counters are only touched at epoch boundaries.
type smTelemetry struct {
	rec   *telemetry.Recorder
	epoch int

	cycleInEpoch int
	cur          telSnap // cumulative counters for this SM
	last         telSnap // snapshot at the previous epoch boundary

	// eTab and leakMW cache the design's pricing so the epoch sampler
	// can render the v2 energy columns without consulting the energy
	// package per sample.
	eTab   [4]float64
	leakMW float64

	// Shared live aggregates (nil when no recorder is attached).
	cIssued  *telemetry.Counter
	cBusy    *telemetry.Counter
	cCycles  *telemetry.Counter
	cSamples *telemetry.Counter
	cParts   [4]*telemetry.Counter
	cStalls  [telemetry.NumStallCauses]*telemetry.Counter
}

// newSMTelemetry builds the observation state for one SM, binding the
// shared registry counters once so the per-cycle path never consults the
// registry.
func newSMTelemetry(rec *telemetry.Recorder, d regfile.Design) *smTelemetry {
	t := &smTelemetry{rec: rec}
	if rec == nil {
		return t
	}
	t.epoch = rec.Epoch
	t.eTab = energy.PerAccessTable(d)
	t.leakMW = energy.LeakageMW(d)
	reg := rec.Registry()
	t.cIssued = reg.Counter("sim.issued")
	t.cBusy = reg.Counter("sim.busy_cycles")
	t.cCycles = reg.Counter("sim.sm_cycles")
	t.cSamples = reg.Counter("sim.epoch_samples")
	for p := range t.cParts {
		t.cParts[p] = reg.Counter("sim.accesses." + regfile.Partition(p).String())
	}
	for c := range t.cStalls {
		t.cStalls[c] = reg.Counter("sim.stall." + telemetry.StallCause(c).String())
	}
	return t
}

// observeCycle runs at the end of every tick when telemetry is enabled:
// it charges the cycle as busy or to exactly one stall cause, accumulates
// the epoch's bank backlog, and emits a sample row at epoch boundaries.
func (s *sm) observeCycle() {
	t := s.tel
	st := s.run.stats
	st.SMCycles++
	if s.issuedEpoch > 0 {
		t.cur.busy++
		t.cur.issued += uint64(s.issuedEpoch)
		st.BusyCycles++
	} else {
		c := s.classifyStall()
		t.cur.stalls[c]++
		st.StallBreakdown[c]++
	}
	t.cur.bankQueueSum += uint64(s.queued)
	if t.rec == nil {
		return
	}
	t.cycleInEpoch++
	if t.cycleInEpoch >= t.epoch {
		s.sampleEpoch()
	}
}

// classifyStall charges a zero-issue cycle to exactly one cause. The
// priority order resolves mixed conditions deterministically: a
// structural collector stall (an otherwise-ready warp existed) wins;
// an SM with no live warps is draining its in-flight tail; otherwise
// outstanding memory beats bank service beats scoreboard/branch-shadow
// dependencies beats barriers; anything else (e.g. ready warps parked
// outside a two-level scheduler's active pool) is no-ready-warp.
func (s *sm) classifyStall() telemetry.StallCause {
	if s.run.stats.CollectorStalls > s.telCollectorMark {
		return telemetry.StallCollectorFull
	}
	if s.liveWarps == 0 {
		return telemetry.StallPilotDrain
	}
	var memPending, scoreboard, barrier bool
	for _, w := range s.warps {
		if w == nil || w.done {
			continue
		}
		switch {
		case w.atBarrier:
			barrier = true
		case w.memInFlight > 0:
			memPending = true
		case w.pendingRegs != 0 || w.pendingPreds != 0 || w.blockedUntil > s.now:
			scoreboard = true
		}
	}
	if memPending {
		return telemetry.StallMemoryPending
	}
	for _, c := range s.pendingCols {
		if s.collectors[c].pendingReads > 0 {
			return telemetry.StallBankConflict
		}
	}
	switch {
	case scoreboard:
		return telemetry.StallScoreboard
	case barrier:
		return telemetry.StallBarrier
	}
	return telemetry.StallNoReadyWarp
}

// sampleEpoch appends one time-series row covering the (possibly
// partial) epoch that just ended and folds its deltas into the shared
// live counters.
func (s *sm) sampleEpoch() {
	t := s.tel
	n := t.cycleInEpoch
	if t.rec == nil || n == 0 {
		return
	}
	issued := t.cur.issued - t.last.issued
	busy := t.cur.busy - t.last.busy
	bankq := t.cur.bankQueueSum - t.last.bankQueueSum
	var parts [4]uint64
	for p := range parts {
		parts[p] = t.cur.parts[p] - t.last.parts[p]
	}
	var stalls telemetry.StallBreakdown
	for c := range stalls {
		stalls[c] = t.cur.stalls[c] - t.last.stalls[c]
	}

	util := float64(issued) / float64(n*s.cfg.MaxIssuePerCycle())
	avgQ := float64(bankq) / float64(n) / float64(len(s.banks))
	lowPower := 0.0
	if a := s.rf.Adaptive(); a != nil && a.LowPower() {
		lowPower = 1
	}
	eLeak := t.leakMW * float64(n) / energy.ClockGHz
	row := [...]float64{
		float64(s.run.telKernel), float64(s.now), float64(s.id),
		float64(issued), util,
		float64(parts[regfile.PartMRF]), float64(parts[regfile.PartFRFHigh]),
		float64(parts[regfile.PartFRFLow]), float64(parts[regfile.PartSRF]),
		avgQ, lowPower, float64(busy),
		float64(stalls[telemetry.StallCollectorFull]),
		float64(stalls[telemetry.StallMemoryPending]),
		float64(stalls[telemetry.StallBankConflict]),
		float64(stalls[telemetry.StallScoreboard]),
		float64(stalls[telemetry.StallBarrier]),
		float64(stalls[telemetry.StallPilotDrain]),
		float64(stalls[telemetry.StallNoReadyWarp]),
		float64(parts[regfile.PartMRF]) * t.eTab[regfile.PartMRF],
		float64(parts[regfile.PartFRFHigh]) * t.eTab[regfile.PartFRFHigh],
		float64(parts[regfile.PartFRFLow]) * t.eTab[regfile.PartFRFLow],
		float64(parts[regfile.PartSRF]) * t.eTab[regfile.PartSRF],
		eLeak,
	}
	t.rec.Append(row[:])

	t.cIssued.Add(issued)
	t.cBusy.Add(busy)
	t.cCycles.Add(uint64(n))
	t.cSamples.Inc()
	for p, c := range t.cParts {
		c.Add(parts[p])
	}
	for c, ctr := range t.cStalls {
		ctr.Add(stalls[c])
	}

	t.last = t.cur
	t.cycleInEpoch = 0
}
