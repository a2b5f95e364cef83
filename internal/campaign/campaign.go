// Package campaign is the shared fault-campaign execution engine behind
// cmd/faultcampaign, cmd/pilotserve and the fleet: it compiles a Spec
// into a Plan, the (design × workload × protection) grid of cells in
// canonical order. Run executes that plan: it runs the golden references
// and every cell's seeded trials on a jobs.Pool, classifies every trial,
// and assembles the byte-reproducible pilotrf-faultcampaign/v1 report —
// identical bytes whether the pool has one worker or sixty-four. The
// fleet coordinator shards the same plan across machines.
//
// Two layers of reuse remove the redundant work the sequential driver
// used to repeat:
//
//   - Within one run, a single golden (fault-free) simulation per
//     (design, workload) serves every protection scheme's trials.
//   - Across runs, a jobs.Cache persists golden digests and finished
//     cells under content-addressed keys, so re-sweeps with overlapping
//     grids, and campaigns resumed after an interrupt, recompute only
//     what is genuinely new. Corrupt or stale entries load as misses
//     and are recomputed, never trusted. Run looks every cell up first
//     and reads (or runs) a pair's golden only when one of its cells is
//     to be computed, so a fully cached campaign reads no golden.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"pilotrf/internal/design"
	"pilotrf/internal/fault"
	"pilotrf/internal/jobs"
	"pilotrf/internal/sim"
	"pilotrf/internal/trace"
	"pilotrf/internal/workloads"
)

// Schema identifies the report format; bump on incompatible change.
// The value (and the JSON layout it tags) predates this package — it
// moved here from cmd/faultcampaign — so reports stay byte-compatible
// with the sequential driver's.
const Schema = "pilotrf-faultcampaign/v1"

// goldenVersion versions the cached golden-run snapshot independently of
// the report schema; bump it when the simulator's dataflow digests
// change meaning and every cached golden becomes a miss. v2: v1 entries
// for schemes with settings beyond their base RF (rfc, rfc-hints) were
// computed without those settings.
const goldenVersion = "golden/v2"

// cellVersion versions cached finished cells (v2: as goldenVersion).
const cellVersion = "cell/v2"

// Outcomes counts trial classifications within one campaign cell.
type Outcomes struct {
	Masked                int `json:"masked"`
	Corrected             int `json:"corrected"`
	DetectedUnrecoverable int `json:"detected_unrecoverable"`
	SDC                   int `json:"sdc"`
}

// Cell is one (design, protection, workload) campaign cell: trial
// classifications plus the aggregate fault counters across its trials.
type Cell struct {
	Design       string   `json:"design"`
	Protection   string   `json:"protection"`
	Workload     string   `json:"workload"`
	Outcomes     Outcomes `json:"outcomes"`
	Injected     uint64   `json:"injected"`
	Corrected    uint64   `json:"corrected"`
	Retries      uint64   `json:"retries"`
	SilentReads  uint64   `json:"silent_reads"`
	CAMCorrupted uint64   `json:"cam_corrupted"`
}

// Report is the versioned campaign result.
type Report struct {
	Schema string  `json:"schema"`
	Rate   float64 `json:"rate"`
	Seed   uint64  `json:"seed"`
	Trials int     `json:"trials"`
	Scale  float64 `json:"scale"`
	SMs    int     `json:"sms"`
	Cells  []Cell  `json:"cells"`
}

// Spec is a campaign request: the grid axes and the physics knobs. The
// zero value of each list field selects the corresponding default, so a
// JSON body of {"trials": 3, "seed": 7} is a complete request. A spec
// that expands to more than 1<<20 jobs (golden runs plus trials) is
// invalid.
type Spec struct {
	// Benchmarks lists workload names (empty = the full Table I suite).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Designs lists registered design schemes by name, each run at its
	// default knobs (empty = mrf-ntv, part, part-adaptive).
	Designs []string `json:"designs,omitempty"`
	// Protect lists protection schemes by name (empty = none, parity,
	// secded, paper).
	Protect []string `json:"protect,omitempty"`
	// Trials is the seeded injection count per cell (0 selects 5; at
	// most 65536).
	Trials int `json:"trials,omitempty"`
	// Rate is the accelerated soft-error rate in upsets/bit/cycle at
	// STV (0 selects 2e-11).
	Rate float64 `json:"rate,omitempty"`
	// Seed derives every trial's fault stream; equal specs produce
	// byte-identical reports (0 selects 1).
	Seed uint64 `json:"seed,omitempty"`
	// Scale multiplies workload CTA counts (0 selects 0.05, the
	// campaign default; at most 32).
	Scale float64 `json:"scale,omitempty"`
	// SMs is the simulated SM count (0 selects 2; at most 64).
	SMs int `json:"sms,omitempty"`
}

// withDefaults returns the spec with zero fields replaced by the
// campaign defaults (the historical cmd/faultcampaign flag defaults).
func (s Spec) withDefaults() Spec {
	if len(s.Designs) == 0 {
		s.Designs = []string{"mrf-ntv", "part", "part-adaptive"}
	}
	if len(s.Protect) == 0 {
		s.Protect = []string{"none", "parity", "secded", "paper"}
	}
	if s.Trials == 0 {
		s.Trials = 5
	}
	if s.Rate == 0 {
		s.Rate = 2e-11
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Scale == 0 {
		s.Scale = 0.05
	}
	if s.SMs == 0 {
		s.SMs = 2
	}
	return s
}

// Upper bounds on a spec, which compile enforces for faultcampaign, the
// fleet and pilotserve alike: no spec may ask for more SMs, work or jobs
// than these, or overflow its job count.
const (
	maxTrials = 1 << 16 // trials per cell
	maxSMs    = 64      // over 4x KeplerConfig's 15 SMs
	maxScale  = 32      // keeps WORKLOADS.md's scale x 2/SMs = 1 reachable at maxSMs
	maxJobs   = 1 << 20 // golden runs plus trials
)

// capMul returns a*b for non-negative a and b, or maxJobs+1 once the
// product passes maxJobs, so it never overflows.
func capMul(a, b int) int {
	if b != 0 && a > maxJobs/b {
		return maxJobs + 1
	}
	return a * b
}

// plan is a validated, fully-resolved spec.
type plan struct {
	spec    Spec         // defaults applied, every name as registered
	configs []sim.Config // per design, in spec order
	schemes []fault.Scheme
	wls     []workloads.Workload
}

// compile resolves and validates a spec against the workload suite. The
// compiled spec names every design, protection and workload by its
// registry name, so a padded or alias spelling reports, keys and caches
// its cells as the canonical one does. The caller's slices are never
// rewritten.
func compile(s Spec) (*plan, error) {
	s = s.withDefaults()
	p := &plan{}
	if s.Trials < 0 || s.Trials > maxTrials {
		return nil, fmt.Errorf("trials must be in [1, %d], got %d", maxTrials, s.Trials)
	}
	if (fault.Config{Rate: s.Rate}).Validate() != nil {
		return nil, fmt.Errorf("rate must be a positive finite upsets/bit/cycle, got %v", s.Rate)
	}
	if s.SMs <= 0 || s.SMs > maxSMs {
		return nil, fmt.Errorf("sms must be in [1, %d], got %d", maxSMs, s.SMs)
	}
	if !(s.Scale > 0 && s.Scale <= maxScale) {
		return nil, fmt.Errorf("scale must be in (0, %d], got %v", maxScale, s.Scale)
	}
	numWls := len(s.Benchmarks)
	if numWls == 0 {
		p.wls = workloads.All()
		numWls = len(p.wls)
	}
	// Price the grid from its axis lengths before resolving any name.
	pairs := capMul(len(s.Designs), numWls)
	if capMul(pairs, 1+capMul(len(s.Protect), s.Trials)) > maxJobs {
		return nil, fmt.Errorf("spec expands to more than %d jobs (golden runs plus trials)", maxJobs)
	}
	designs := make([]string, len(s.Designs))
	for i, name := range s.Designs {
		sch, err := design.Resolve(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		cfg, err := sim.DefaultConfig().WithScheme(sch, sch.DefaultKnobs())
		if err != nil {
			return nil, err
		}
		cfg.NumSMs = s.SMs
		designs[i] = sch.Name()
		p.configs = append(p.configs, cfg)
	}
	protect := make([]string, len(s.Protect))
	for i, name := range s.Protect {
		sch, err := fault.ParseScheme(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		protect[i] = sch.String()
		p.schemes = append(p.schemes, sch)
	}
	if len(s.Benchmarks) > 0 {
		bench := make([]string, len(s.Benchmarks))
		for i, name := range s.Benchmarks {
			w, err := workloads.ByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			bench[i] = w.Name
			p.wls = append(p.wls, w)
		}
		s.Benchmarks = bench
	}
	s.Designs, s.Protect = designs, protect
	p.spec = s
	return p, nil
}

// Validate checks a spec without running it (the job server's admission
// path).
func (s Spec) Validate() error {
	_, err := compile(s)
	return err
}

// NumJobs returns how many pool tasks the spec expands to (golden runs
// plus trials) — the unit Progress counts and the queue-depth admission
// control prices.
func (s Spec) NumJobs() (int, error) {
	p, err := compile(s)
	if err != nil {
		return 0, err
	}
	return p.numJobs(), nil
}

// numJobs returns the plan's pool tasks: one golden run per (design,
// workload) pair plus every cell's trials.
func (p *plan) numJobs() int {
	pairs := len(p.configs) * len(p.wls)
	return pairs + pairs*len(p.schemes)*p.spec.Trials
}

// Options configures a Run beyond the spec.
type Options struct {
	// Pool executes the simulation jobs. Required.
	Pool *jobs.Pool
	// Cache, when non-nil, persists golden snapshots and finished
	// cells across invocations.
	Cache *jobs.Cache
	// Progress, when set, is called as jobs finish with the cumulative
	// done count and the total. Calls come from the Run goroutine or a
	// pool worker but never overlap, and done rises with every call.
	// Cached cells, and goldens that are cached or that no cell to
	// compute needs, report their jobs as instantly done.
	Progress func(done, total int)
	// Trace, when non-nil, records a span tree for the run: a campaign
	// root (unless ctx already carries a span, in which case the
	// campaign span becomes its child), phase spans for the golden and
	// trial batches, one span per golden / cell / trial with cache and
	// outcome annotations, and the pool's per-task spans underneath.
	// Span ids derive from the content-addressed cache keys and
	// submission indices, so the tree is identical at any worker count;
	// tracing changes no simulated cycles and leaves the report
	// byte-identical (both test-asserted).
	Trace *trace.Recorder
}

// trialSeed derives the fault seed of one trial from the campaign seed.
// The injector further salts per SM, so every (trial, SM) process is an
// independent, reproducible stream.
func trialSeed(seed uint64, trial int) uint64 {
	return seed + uint64(trial+1)*0xA24BAED4963EE407
}

// watchdogBudget bounds a faulty trial's runtime: a fault that corrupts
// control flow can spin a kernel forever, and without a tight budget a
// single runaway trial stalls the whole campaign for the simulator's
// default 200M-cycle limit. 50x the fault-free run plus slack is far
// above any legitimate retry overhead (bounded re-issues at a few
// cycles each) while catching runaways in milliseconds.
func watchdogBudget(goldenCycles int64) int64 {
	return 50*goldenCycles + 10_000
}

// goldenSnapshot is the cached residue of a fault-free reference run:
// everything a trial needs to be classified against it.
type goldenSnapshot struct {
	Digests []fault.KernelDigest `json:"digests"`
	Cycles  int64                `json:"cycles"`
}

// goldenKey addresses one (design, workload) golden snapshot.
func (p *plan) goldenKey(design string, w workloads.Workload) jobs.Key {
	return jobs.NewKey().
		Field("kind", "golden").
		Field("schema", Schema).
		Field("version", goldenVersion).
		Field("design", design).
		Field("workload", w.Name).
		Float("scale", p.spec.Scale).
		Int("sms", int64(p.spec.SMs)).
		Sum()
}

// cellKey addresses one finished cell. It includes every input the
// cell's outcome depends on; goldenVersion rides along because the
// classification compares against golden digests.
func (p *plan) cellKey(ref CellRef) jobs.Key {
	return jobs.NewKey().
		Field("kind", "cell").
		Field("schema", Schema).
		Field("version", cellVersion).
		Field("golden", goldenVersion).
		Field("design", ref.Design).
		Field("workload", ref.Workload).
		Field("protect", ref.Protect).
		Float("scale", p.spec.Scale).
		Int("sms", int64(p.spec.SMs)).
		Float("rate", p.spec.Rate).
		Uint("seed", p.spec.Seed).
		Int("trials", int64(p.spec.Trials)).
		Sum()
}

// trialResult is one seeded trial's contribution to its cell.
type trialResult struct {
	outcome func(*Outcomes) *int // which Outcomes counter to bump
	label   string               // the outcome's report name (span annotation)
	stats   fault.Stats
}

// runGolden executes the fault-free reference for one (design, workload).
func runGolden(cfg sim.Config, w workloads.Workload) (goldenSnapshot, error) {
	probe := fault.NewDigestProbe()
	cfg.Record = probe
	g, err := sim.New(cfg)
	if err != nil {
		return goldenSnapshot{}, err
	}
	rs, err := g.RunKernels(w.Name, w.Kernels)
	if err != nil {
		return goldenSnapshot{}, err
	}
	return goldenSnapshot{Digests: probe.Digests(), Cycles: rs.TotalCycles()}, nil
}

// runTrial executes one seeded trial and classifies it against the
// golden snapshot.
func runTrial(cfg sim.Config, w workloads.Workload, golden goldenSnapshot, scheme fault.Scheme, rate float64, seed uint64) (trialResult, error) {
	probe := fault.NewDigestProbe()
	cfg.Record = probe
	cfg.Protect = scheme
	cfg.Fault = &fault.Config{Rate: rate, Seed: seed}
	cfg.MaxCycles = watchdogBudget(golden.Cycles)
	g, err := sim.New(cfg)
	if err != nil {
		return trialResult{}, err
	}
	rs, err := g.RunKernels(w.Name, w.Kernels)
	tr := trialResult{stats: rs.FaultTotals()}
	st := tr.stats

	var ue *fault.UnrecoverableError
	switch {
	case errors.As(err, &ue):
		tr.outcome = func(o *Outcomes) *int { return &o.DetectedUnrecoverable }
		tr.label = "detected_unrecoverable"
	case errors.Is(err, sim.ErrCycleLimit):
		// A fault corrupted control flow into a runaway loop; the
		// watchdog caught it. Nothing detected it architecturally, so
		// it is silent corruption, not graceful degradation.
		tr.outcome = func(o *Outcomes) *int { return &o.SDC }
		tr.label = "sdc"
	case err != nil:
		// Anything but a clean fault abort is a campaign bug.
		return trialResult{}, err
	default:
		if _, div := probe.DivergedFromDigests(golden.Digests); div {
			tr.outcome = func(o *Outcomes) *int { return &o.SDC }
			tr.label = "sdc"
		} else if st.Corrected+st.RetrySuccess+st.CAMRepaired > 0 {
			tr.outcome = func(o *Outcomes) *int { return &o.Corrected }
			tr.label = "corrected"
		} else {
			tr.outcome = func(o *Outcomes) *int { return &o.Masked }
			tr.label = "masked"
		}
	}
	return tr, nil
}

// specKey fingerprints a compiled spec — the content-addressed identity
// a standalone campaign's trace id derives from, so equal specs map to
// equal trace ids across runs and machines.
func (p *plan) specKey() jobs.Key {
	s := p.spec
	names := make([]string, len(p.wls))
	for i, w := range p.wls {
		names[i] = w.Name
	}
	return jobs.NewKey().
		Field("kind", "campaign").
		Field("schema", Schema).
		Field("designs", strings.Join(s.Designs, ",")).
		Field("protect", strings.Join(s.Protect, ",")).
		Field("bench", strings.Join(names, ",")).
		Int("trials", int64(s.Trials)).
		Float("rate", s.Rate).
		Uint("seed", s.Seed).
		Float("scale", s.Scale).
		Int("sms", int64(s.SMs)).
		Sum()
}

// Run executes the campaign's Plan on the pool and returns the report.
// The cell order, and therefore the marshalled report, is byte-identical
// to the historical sequential driver for the same spec regardless of
// the pool's worker count.
func Run(ctx context.Context, spec Spec, opt Options) (Report, error) {
	pl, err := NewPlan(spec)
	if err != nil {
		return Report{}, err
	}
	if opt.Pool == nil {
		return Report{}, fmt.Errorf("campaign: Options.Pool is required")
	}
	p := pl.p
	s := p.spec
	totalJobs := p.numJobs()

	// Span tracing. The campaign span hangs under the caller's span when
	// ctx carries one (the job server's per-job root) and otherwise roots
	// a fresh trace whose id derives from the spec fingerprint. Every
	// span opened on this goroutine is tracked and closed by the deferred
	// sweep, so error returns never leave a recorded child with an
	// unrecorded parent.
	var open []*trace.ActiveSpan
	track := func(sp *trace.ActiveSpan) *trace.ActiveSpan {
		if sp != nil {
			open = append(open, sp)
		}
		return sp
	}
	defer func() {
		for i := len(open) - 1; i >= 0; i-- {
			open[i].End() // idempotent: already-ended spans no-op
		}
	}()
	var camp *trace.ActiveSpan
	if sc := trace.FromContext(ctx); sc.Active() {
		camp = track(sc.Start("campaign"))
	} else if opt.Trace != nil {
		camp = track(opt.Trace.Root("campaign", pl.TraceID(), p.specKey().Hex()))
	}
	camp.SetAttr("designs", strings.Join(s.Designs, ","))
	camp.SetAttr("protect", strings.Join(s.Protect, ","))
	camp.SetAttr("trials", strconv.Itoa(s.Trials))
	camp.SetAttr("seed", strconv.FormatUint(s.Seed, 10))
	camp.SetAttr("jobs", strconv.Itoa(totalJobs))
	campSC := camp.Context()
	// One counter behind a mutex: the Run goroutine credits cached work,
	// pool tasks credit their own jobs as they finish. The lock spans
	// the callback so calls never overlap and done rises with each one.
	var mu sync.Mutex
	done := 0
	report := func(n int) {
		if opt.Progress == nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		done += n
		opt.Progress(done, totalJobs)
	}

	// Cells first. A cached cell is reused only when it validates
	// against its ref; every other cell expands into one task per trial,
	// in canonical order, so the ordered results fold straight into it.
	type cellJob struct {
		ref  CellRef
		key  jobs.Key
		span *trace.ActiveSpan
	}
	cells := make([]Cell, len(pl.cells))
	var todo []cellJob
	for i, ref := range pl.cells {
		key := p.cellKey(ref)
		sp := campSC.Start("cell", key.Hex())
		sp.SetAttr("design", ref.Design)
		sp.SetAttr("workload", ref.Workload)
		sp.SetAttr("protect", ref.Protect)
		if opt.Cache.Get(key, &cells[i]) && pl.ValidCell(i, cells[i]) {
			sp.SetAttr("cache", "hit")
			outcomeAttrs(sp, cells[i].Outcomes)
			sp.End()
			report(s.Trials)
			continue
		}
		sp.SetAttr("cache", "miss")
		cells[i] = Cell{Design: ref.Design, Protection: ref.Protect, Workload: ref.Workload}
		todo = append(todo, cellJob{ref: ref, key: key, span: track(sp)})
	}

	// Then the golden references, one per (design, workload) pair with a
	// cell to compute, pulled from the cache where possible and computed
	// on the pool otherwise. A pair whose cells all hit needs no golden:
	// its job counts as done unread.
	type goldenJob struct {
		di, wi int
		key    jobs.Key
	}
	goldens := make([]goldenSnapshot, len(p.configs)*len(p.wls))
	goldenAt := func(di, wi int) int { return di*len(p.wls) + wi }
	needed := make([]bool, len(goldens))
	for _, j := range todo {
		needed[goldenAt(j.ref.di, j.ref.wi)] = true
	}
	var missing []goldenJob
	skipped := 0
	for di, name := range s.Designs {
		for wi, w := range p.wls {
			if !needed[goldenAt(di, wi)] {
				skipped++
				continue
			}
			key := p.goldenKey(name, w)
			if snap := &goldens[goldenAt(di, wi)]; opt.Cache.Get(key, snap) &&
				len(snap.Digests) == len(w.Kernels) && snap.Cycles > 0 {
				gsp := campSC.Start("golden", key.Hex())
				gsp.SetAttr("design", name)
				gsp.SetAttr("workload", w.Name)
				gsp.SetAttr("cache", "hit")
				gsp.End()
				report(1)
				continue
			}
			missing = append(missing, goldenJob{di: di, wi: wi, key: key})
		}
	}
	if skipped > 0 {
		report(skipped)
	}
	if len(missing) > 0 {
		gphase := track(campSC.Start("phase.golden"))
		gphase.SetAttr("count", strconv.Itoa(len(missing)))
		gsc := gphase.Context()
		results, err := jobs.Map(trace.NewContext(ctx, gsc), opt.Pool, len(missing), func(ctx context.Context, i int) (interface{}, error) {
			j := missing[i]
			sp := gsc.Start("golden", j.key.Hex())
			defer sp.End()
			sp.SetAttr("design", s.Designs[j.di])
			sp.SetAttr("workload", p.wls[j.wi].Name)
			sp.SetAttr("cache", "miss")
			w := p.wls[j.wi].Scale(s.Scale)
			snap, err := runGolden(p.configs[j.di], w)
			if err != nil {
				return nil, fmt.Errorf("golden %s/%s: %w", s.Designs[j.di], w.Name, err)
			}
			sp.SetAttr("cycles", strconv.FormatInt(snap.Cycles, 10))
			report(1)
			return snap, nil
		})
		if err != nil {
			return Report{}, err
		}
		gphase.End()
		for i, v := range results {
			j := missing[i]
			goldens[goldenAt(j.di, j.wi)] = v.(goldenSnapshot)
			if err := opt.Cache.Put(j.key, v); err != nil {
				return Report{}, err
			}
		}
	}

	// Finally the trials of every cell to compute.
	if len(todo) > 0 {
		n := len(todo) * s.Trials
		tphase := track(campSC.Start("phase.trials"))
		tphase.SetAttr("count", strconv.Itoa(n))
		results, err := jobs.Map(trace.NewContext(ctx, tphase.Context()), opt.Pool, n, func(ctx context.Context, i int) (interface{}, error) {
			j, trial := &todo[i/s.Trials], i%s.Trials
			seed := trialSeed(s.Seed, trial)
			sp := j.span.Context().Start("trial", strconv.Itoa(trial))
			defer sp.End()
			sp.SetAttr("trial", strconv.Itoa(trial))
			sp.SetAttr("seed", strconv.FormatUint(seed, 10))
			ref := j.ref
			tr, err := runTrial(p.configs[ref.di], p.wls[ref.wi].Scale(s.Scale), goldens[goldenAt(ref.di, ref.wi)], p.schemes[ref.si], s.Rate, seed)
			if err != nil {
				return nil, fmt.Errorf("%s/%s/%s: %w", ref.Design, ref.Protect, ref.Workload, err)
			}
			sp.SetAttr("outcome", tr.label)
			report(1)
			return tr, nil
		})
		if err != nil {
			return Report{}, err
		}
		tphase.End()
		for k, j := range todo {
			c := &cells[j.ref.Index]
			for _, v := range results[k*s.Trials : (k+1)*s.Trials] {
				tr := v.(trialResult)
				c.Injected += tr.stats.TotalInjected()
				c.Corrected += tr.stats.Corrected
				c.Retries += tr.stats.DetectedRetry
				c.SilentReads += tr.stats.SilentReads
				c.CAMCorrupted += tr.stats.CAMCorrupted
				*tr.outcome(&c.Outcomes)++
			}
			if err := opt.Cache.Put(j.key, *c); err != nil {
				return Report{}, err
			}
			outcomeAttrs(j.span, c.Outcomes)
			j.span.End()
		}
	}
	return pl.Assemble(cells), nil
}

// outcomeAttrs stamps a cell's outcome counts on its span.
func outcomeAttrs(sp *trace.ActiveSpan, o Outcomes) {
	sp.SetAttr("masked", strconv.Itoa(o.Masked))
	sp.SetAttr("corrected", strconv.Itoa(o.Corrected))
	sp.SetAttr("detected_unrecoverable", strconv.Itoa(o.DetectedUnrecoverable))
	sp.SetAttr("sdc", strconv.Itoa(o.SDC))
}
