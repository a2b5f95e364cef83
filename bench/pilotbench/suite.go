package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"pilotrf/internal/benchstat"
	"pilotrf/internal/design"
	"pilotrf/internal/energy"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/perfscope"
	"pilotrf/internal/profile"
	"pilotrf/internal/ref"
	"pilotrf/internal/regfile"
	"pilotrf/internal/rfc"
	"pilotrf/internal/sim"
	"pilotrf/internal/stats"
	"pilotrf/internal/workloads"
)

// Suite sizes. Scale 0.2 on one SM keeps each kernel's CTA waves close
// enough to full scale that the Figure 11/12 numbers stay within 0.2
// points of the full-scale run, and one pass over all seven schemes
// fits a run. The observed suite runs at half that scale so several
// whole passes fit and its latency percentiles have enough samples.
const (
	detachedScale = 0.2
	observedScale = 0.1
	suiteSMs      = 1
)

// observedSchemes are the schemes the observed suite runs: the
// baseline, the paper's design, and the RFC rival, whose observers
// differ most.
var observedSchemes = []string{"mrf-stv", "part-adaptive", "rfc-hints"}

// suiteParams sizes a simulator-suite workload.
type suiteParams struct {
	schemes  []string
	scale    float64
	observed bool              // attach every observer to every run
	pins     map[string]string // pinned cell digests (see pinKey)
	pass     time.Duration     // nominal duration of one pass (see env.startPhase)
}

func detachedParams() suiteParams {
	return suiteParams{schemes: design.Names(), scale: detachedScale, pins: loadPins(), pass: 12 * time.Second}
}

func observedParams() suiteParams {
	return suiteParams{schemes: observedSchemes, scale: observedScale, observed: true, pins: loadPins(),
		pass: 6 * time.Second}
}

// cell is one (scheme, workload) simulation of a suite.
type cell struct {
	scheme string
	wl     workloads.Workload // already scaled
	cfg    sim.Config         // detached configuration
}

func (c *cell) name() string { return c.scheme + "/" + c.wl.Name }

// buildCells resolves every (scheme, workload) pair of the suite, in
// registration then Table I order.
func buildCells(p suiteParams) ([]cell, error) {
	var cells []cell
	all := workloads.All()
	for _, name := range p.schemes {
		s, ok := design.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q", name)
		}
		base := sim.DefaultConfig()
		base.NumSMs = suiteSMs
		cfg, err := base.WithScheme(s, s.DefaultKnobs())
		if err != nil {
			return nil, err
		}
		for _, w := range all {
			cells = append(cells, cell{scheme: name, wl: w.Scale(p.scale), cfg: cfg})
		}
	}
	return cells, nil
}

// observers are the bench's own in-memory observers of an observed run.
type observers struct {
	ledger *energy.Ledger
	sink   countingSink
	tracer countingTracer
}

// attach puts every observer the simulator has on cfg: the energy
// ledger, stall attribution and epoch metrics, the perfscope census,
// the swap-decision audit log, and the bench's event sink and tracer.
func (o *observers) attach(cfg *sim.Config) {
	o.ledger = energy.NewLedger(cfg.RF.Design, 0)
	cfg.Energy = o.ledger
	cfg.Stalls = true
	cfg.Metrics = sim.NewMetricsRecorder(0)
	cfg.Perf = perfscope.New(false)
	cfg.Audit = &profile.AuditLog{}
	cfg.Record = &o.sink
	cfg.Tracer = &o.tracer
}

// FNV-1a 64-bit prime, folding observer events into a digest.
const fnvPrime = 1099511628211

// countingSink is a flightrec.Sink that counts events and folds them
// into a digest, so repeated runs of a cell can be compared.
type countingSink struct{ events, sum uint64 }

// Record implements flightrec.Sink.
func (s *countingSink) Record(e flightrec.Event) {
	s.events++
	for _, v := range [...]uint64{uint64(e.Cycle), uint64(e.SM), uint64(e.Kind), uint64(e.Warp), uint64(e.PC), e.A, e.B} {
		s.sum = (s.sum ^ v) * fnvPrime
	}
}

// ChecksumEvery implements flightrec.Sink.
func (s *countingSink) ChecksumEvery() int64 { return flightrec.DefaultChecksumEvery }

// countingTracer is a sim.Tracer that counts events and folds their
// rendered detail into a digest.
type countingTracer struct{ events, sum uint64 }

// Event implements sim.Tracer.
func (t *countingTracer) Event(e sim.TraceEvent) {
	t.events++
	t.sum = (t.sum ^ uint64(e.Cycle)) * fnvPrime
	for i := 0; i < len(e.Detail); i++ {
		t.sum = (t.sum ^ uint64(e.Detail[i])) * fnvPrime
	}
}

// cellRun is one timed simulation of a cell.
type cellRun struct {
	stats    sim.RunStats
	start    time.Time
	dur      time.Duration
	observed [2]uint64 // sink and tracer digests (observed suite)
	events   [2]uint64 // sink and tracer event counts
	newNS    int64     // time in sim.New
	phaseNS  [perfscope.NumPhases]int64
	census   perfscope.Census
}

// runCell simulates one cell, timing sim.New plus RunKernels. Observer
// construction is part of the timed work: an observed run pays for it.
func runCell(e *env, c *cell, p suiteParams, rep int) (cellRun, error) {
	cfg := c.cfg
	var obs observers
	if p.observed {
		obs.attach(&cfg)
	}
	if e.traced() {
		cfg.Perf = perfscope.New(true)
	}
	sp := e.root.Context().Start("cell", c.name(), strconv.Itoa(rep))
	sp.SetAttr("scheme", c.scheme)
	sp.SetAttr("workload", c.wl.Name)
	t0 := time.Now()
	nsp := sp.Context().Start("sim.New")
	g, err := sim.New(cfg)
	newNS := time.Since(t0).Nanoseconds()
	nsp.End()
	if err != nil {
		sp.End()
		return cellRun{}, err
	}
	rsp := sp.Context().Start("sim.RunKernels")
	rs, err := g.RunKernels(c.wl.Name, c.wl.Kernels)
	rsp.End()
	run := cellRun{stats: rs, start: t0, dur: time.Since(t0), newNS: newNS}
	if err == nil && p.observed {
		csp := sp.Context().Start("energy.CheckConservation")
		err = obs.ledger.CheckConservation(rs.PartAccesses(), rs.TotalCycles())
		csp.End()
		run.observed = [2]uint64{obs.sink.sum, obs.tracer.sum}
		run.events = [2]uint64{obs.sink.events, obs.tracer.events}
	}
	if cfg.Perf != nil {
		run.phaseNS = cfg.Perf.PhaseNS()
		run.census = cfg.Perf.Census()
	}
	sp.End()
	return run, err
}

// warmUp simulates the suite's cheapest cell once, so lazy
// initialisation and heap growth are paid before anything is timed.
func warmUp(cells []cell) error {
	best, size := 0, -1
	for i := range cells {
		n := 0
		for _, k := range cells[i].wl.Kernels {
			n += k.NumCTAs * k.ThreadsPerCTA
		}
		if size < 0 || n < size {
			best, size = i, n
		}
	}
	g, err := sim.New(cells[best].cfg)
	if err != nil {
		return err
	}
	_, err = g.RunKernels(cells[best].wl.Name, cells[best].wl.Kernels)
	return err
}

// runSuite measures a simulator suite: whole passes over every cell in
// a seed-shuffled order, so every pass weighs the cells alike.
func runSuite(ctx context.Context, e *env, p suiteParams) (*outcome, error) {
	oc := &outcome{metrics: map[string]float64{}}
	m := oc.metrics
	var cells []cell
	setup, err := setupMedian(e.cal, func() (func(), error) {
		var err error
		if cells, err = buildCells(p); err != nil {
			return nil, err
		}
		return nil, warmUp(cells)
	})
	if err != nil {
		return nil, err
	}
	m["setup_s"] = setup

	order := rand.New(rand.NewPCG(e.seed, 0x9E3779B97F4A7C15)).Perm(len(cells))
	first := make([]*cellRun, len(cells))
	var callMS, usPerOp, rssMiB []float64
	var winstr, secs, rawSecs float64
	var total cellRun // summed observer counts, phases and census
	sp := e.root.Context().Start("suite.passes")
	before := readMem()
	start := time.Now()
	pace := e.startPhase(p.pass, (minLatencySamples+len(cells)-1)/len(cells))
	for pass := 0; pace.more(pass); pass++ {
		for _, i := range order {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			c := &cells[i]
			oc.attempted++
			e.cal.measure()
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
			run, err := runCell(e, c, p, pass)
			rss, rssErr := peakRSS()
			if rssErr != nil {
				return nil, rssErr
			}
			rssMiB = append(rssMiB, rss)
			if err != nil {
				oc.fail("%s: %v", c.name(), err)
				continue
			}
			if first[i] == nil {
				first[i] = &run
			} else if digest(first[i].stats) != digest(run.stats) || first[i].observed != run.observed {
				oc.fail("%s: pass %d differs from pass 0", c.name(), pass)
			}
			nominal := e.cal.seconds(run.start, run.dur)
			var cellWinstr float64
			for _, k := range run.stats.Kernels {
				cellWinstr += float64(k.WarpInstrs)
			}
			callMS = append(callMS, nominal*1e3)
			usPerOp = append(usPerOp, nominal*1e6/cellWinstr)
			secs += nominal
			rawSecs += run.dur.Seconds()
			winstr += cellWinstr
			total.events[0] += run.events[0]
			total.events[1] += run.events[1]
			total.newNS += run.newNS
			for ph, ns := range run.phaseNS {
				total.phaseNS[ph] += ns
			}
			total.census.Add(run.census)
		}
	}
	e.cal.measure()
	after := readMem()
	m["host.phase_s"] = time.Since(start).Seconds()
	sp.End()
	m["peak_rss_mib"] = benchstat.Summarize(rssMiB).Median
	m["ops_per_s"] = ratio(winstr, secs)
	memMetrics(m, &before, &after, winstr)
	gcMetrics(m, &before, &after, secs, e.cal.runScale(start))
	if err := latencyMetrics(m, "us_per_op", usPerOp); err != nil {
		return nil, err
	}
	if err := latencyMetrics(m, "sim.call_ms", callMS); err != nil {
		return nil, err
	}
	if e.traced() {
		m["traced.ops_per_s"] = m["ops_per_s"]
		m["sim.new_pct"] = 100 * float64(total.newNS) / (rawSecs * 1e9)
		covered := m["sim.new_pct"]
		for ph, name := range map[perfscope.Phase]string{
			perfscope.PhaseEvents: "events", perfscope.PhaseIssue: "issue", perfscope.PhaseCollect: "collect",
			perfscope.PhaseBanks: "banks", perfscope.PhaseAdaptive: "adaptive", perfscope.PhaseTelemetry: "telemetry",
			perfscope.PhaseEnergy: "energy", perfscope.PhaseRecord: "record",
		} {
			pct := 100 * float64(total.phaseNS[ph]) / (rawSecs * 1e9)
			m["sim."+name+"_pct"] = pct
			covered += pct
		}
		m["sim.unphased_pct"] = 100 - covered
		m["sim.skippable_frac"] = total.census.SkippableFrac()
	}
	if p.observed {
		m["flightrec.events_per_winstr"] = ratio(float64(total.events[0]), winstr)
		m["trace.events_per_winstr"] = ratio(float64(total.events[1]), winstr)
	}

	if err := verifySuite(oc, cells, first, p); err != nil {
		return nil, err
	}
	modelMetrics(m, cells, first)
	return oc, nil
}

// cellDigest is the part of a run's statistics that no observer may
// change and no simulator speed-up may change either.
type cellDigest struct {
	Cycles                          int64
	IssueSlots                      uint64
	WarpInstrs, ThreadInstrs        uint64
	RegReads, RegWrites             uint64
	PartAccesses                    [4]uint64
	CollectorStalls, BankQueueSum   uint64
	PilotFraction, LowEpochFraction float64
	RFC                             rfc.Stats
	Gating                          design.GatingStats
	RegHist                         []uint64
}

// digest fingerprints a run's deterministic statistics, kernel by
// kernel.
func digest(rs sim.RunStats) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, k := range rs.Kernels {
		var hist []uint64
		if k.RegHist != nil {
			hist = k.RegHist.Snapshot()
		}
		_ = enc.Encode(cellDigest{ // hashing cannot fail
			Cycles: k.Cycles, IssueSlots: k.IssueSlots,
			WarpInstrs: k.WarpInstrs, ThreadInstrs: k.ThreadInstrs,
			RegReads: k.RegReads, RegWrites: k.RegWrites, PartAccesses: k.PartAccesses,
			CollectorStalls: k.CollectorStalls, BankQueueSum: k.BankQueueSum,
			PilotFraction: k.PilotFraction, LowEpochFraction: k.LowEpochFraction,
			RFC: k.RFC, Gating: k.Gating, RegHist: hist,
		})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinKey names a suite cell's pinned digest.
func pinKey(scale float64, c *cell) string {
	return fmt.Sprintf("suite/%g/%s", scale, c.name())
}

// verifySuite checks, untimed, every cell's first run: functional
// agreement with the reference interpreter on every kernel, and the
// pinned digest when the suite's scale has pins. The observed suite's
// pins come from detached runs, so this also proves the observers
// changed nothing.
func verifySuite(oc *outcome, cells []cell, first []*cellRun, p suiteParams) error {
	refs := map[string][]*ref.Result{}
	seed := sim.DefaultConfig().Seed
	prefix := fmt.Sprintf("suite/%g/", p.scale)
	pinned := false
	for k := range p.pins {
		pinned = pinned || strings.HasPrefix(k, prefix)
	}
	for i := range cells {
		c, run := &cells[i], first[i]
		if run == nil {
			continue // its failure is already counted
		}
		want, ok := refs[c.wl.Name]
		if !ok {
			for ki := range c.wl.Kernels {
				r, err := ref.Run(&c.wl.Kernels[ki], seed)
				if err != nil {
					return fmt.Errorf("reference interpreter on %s: %w", c.wl.Name, err)
				}
				want = append(want, r)
			}
			refs[c.wl.Name] = want
		}
		for ki, k := range run.stats.Kernels {
			r := want[ki]
			if k.WarpInstrs != r.WarpInstrs || k.ThreadInstrs != r.ThreadInstrs ||
				k.RegReads != r.RegReads || k.RegWrites != r.RegWrites {
				oc.fail("%s kernel %d: simulator %d/%d/%d/%d != reference %d/%d/%d/%d (warp/thread instrs, reads/writes)",
					c.name(), ki, k.WarpInstrs, k.ThreadInstrs, k.RegReads, k.RegWrites,
					r.WarpInstrs, r.ThreadInstrs, r.RegReads, r.RegWrites)
			}
		}
		if pin := p.pins[pinKey(p.scale, c)]; pinned && pin != digest(run.stats) {
			oc.fail("%s: digest %s, pinned %q", c.name(), digest(run.stats), pin)
		}
	}
	return nil
}

// modelMetrics records the modelled design's deterministic outputs:
// simulator counts over one pass, and the Figure 11 energy saving and
// Figure 12 cycle overhead of part-adaptive against mrf-stv, computed
// exactly as internal/experiments does.
func modelMetrics(m map[string]float64, cells []cell, first []*cellRun) {
	var cycles, winstr, slots, stalls, queue, queueDen float64
	var rfcHits, rfcReads float64
	byCell := map[string]sim.RunStats{}
	for i := range cells {
		if first[i] == nil {
			continue
		}
		rs := first[i].stats
		byCell[cells[i].name()] = rs
		banks := float64(cells[i].cfg.RF.Banks)
		for _, k := range rs.Kernels {
			cycles += float64(k.Cycles)
			winstr += float64(k.WarpInstrs)
			slots += float64(k.IssueSlots)
			stalls += float64(k.CollectorStalls)
			queue += float64(k.BankQueueSum)
			queueDen += float64(k.Cycles) * banks
		}
		r := rs.RFCTotals()
		rfcHits += float64(r.ReadHits)
		rfcReads += float64(r.ReadHits + r.ReadMiss)
	}
	m["sim.cycles"] = cycles
	m["sim.ipc"] = ratio(winstr, cycles)
	m["sim.issue_util"] = ratio(winstr, slots)
	m["sim.collector_stalls_per_kinstr"] = ratio(1e3*stalls, winstr)
	m["sim.bank_queue_avg"] = ratio(queue, queueDen)
	m["rfc.hit_rate"] = ratio(rfcHits, rfcReads)

	var saving, overhead, frf, low, pilot []float64
	for _, w := range workloads.Names() {
		base, okB := byCell["mrf-stv/"+w]
		ad, okA := byCell["part-adaptive/"+w]
		if !okB || !okA {
			continue
		}
		saving = append(saving, 1-energy.DynamicPJ(regfile.DesignPartitionedAdaptive, ad.PartAccesses())/
			energy.BaselineDynamicPJ(ad.TotalAccesses()))
		overhead = append(overhead, float64(ad.TotalCycles())/float64(base.TotalCycles()))
		parts := ad.PartAccesses()
		frf = append(frf, ad.FRFShare())
		low = append(low, ratio(float64(parts[regfile.PartFRFLow]), float64(parts[regfile.PartFRFHigh]+parts[regfile.PartFRFLow])))
		var pf []float64
		for _, k := range ad.Kernels {
			pf = append(pf, k.PilotFraction)
		}
		pilot = append(pilot, stats.Mean(pf))
	}
	m["rf.energy_saving_pct"] = 100 * stats.Mean(saving)
	m["rf.cycle_overhead_pct"] = 100 * (stats.Geomean(overhead) - 1)
	m["regfile.frf_share"] = stats.Mean(frf)
	m["regfile.frf_low_share"] = stats.Mean(low)
	m["profile.pilot_fraction"] = stats.Mean(pilot)
}
