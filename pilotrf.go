// Package pilotrf is a library-level reproduction of "Pilot Register
// File: Energy Efficient Partitioned Register File for GPUs" (HPCA 2017):
// a cycle-level GPU simulator with a partitioned FinFET register file
// (fast STV partition + slow NTV partition), pilot-warp/compiler/hybrid
// register profiling, a register-file-cache baseline, and the circuit
// models (7 nm FinFET devices, FinCACTI-style array analysis) behind the
// paper's energy numbers.
//
// The package is a facade over the internal packages: it exposes the
// simulator configuration, the seventeen Table I workloads, the kernel
// builder for writing new workloads, and one function per paper table
// and figure (via RunExperiments / the experiments accessors).
//
// Quick start:
//
//	sim, _ := pilotrf.NewSimulator(pilotrf.PaperOptions())
//	res, _ := sim.RunBenchmark("backprop")
//	fmt.Printf("FRF share: %.0f%%, dynamic energy saving: %.0f%%\n",
//	        res.FRFShare()*100, res.DynamicSavings()*100)
package pilotrf

import (
	"fmt"
	"io"

	"pilotrf/internal/design"
	"pilotrf/internal/energy"
	"pilotrf/internal/fault"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/perfscope"
	"pilotrf/internal/profile"
	"pilotrf/internal/regfile"
	"pilotrf/internal/sim"
	"pilotrf/internal/telemetry"
	"pilotrf/internal/workloads"
)

// Design selects the register file organization.
type Design = regfile.Design

// Register file designs.
const (
	// DesignMonolithicSTV is the performance baseline: a 256 KB MRF at
	// super-threshold voltage.
	DesignMonolithicSTV = regfile.DesignMonolithicSTV
	// DesignMonolithicNTV is the power-aggressive baseline: the MRF at
	// near-threshold voltage (3-cycle access).
	DesignMonolithicNTV = regfile.DesignMonolithicNTV
	// DesignPartitioned is the FRF+SRF split without the adaptive FRF.
	DesignPartitioned = regfile.DesignPartitioned
	// DesignPartitionedAdaptive is the paper's full proposal.
	DesignPartitionedAdaptive = regfile.DesignPartitionedAdaptive
)

// DesignScheme is a pluggable register-file design scheme from the
// internal/design registry: the four paper designs plus the rival
// schemes (GREENER-style liveness gating, the compiler-assisted
// register file cache). Each scheme owns its knob grid, its simulator
// configuration, and its energy pricing.
type DesignScheme = design.Scheme

// DesignKnobs selects one point of a scheme's tuning grid (a partition
// size, RFC entry count, or gating granularity, plus a supply voltage).
// The zero value is every scheme's default.
type DesignKnobs = design.Knobs

// AllSchemes returns every registered design scheme in registration
// order — the canonical order sweep reports use.
func AllSchemes() []DesignScheme { return design.All() }

// LookupScheme finds a registered design scheme by name ("mrf-stv",
// "part-adaptive", "greener", "rfc-hints", ...).
func LookupScheme(name string) (DesignScheme, bool) { return design.Lookup(name) }

// SchemeNames returns the registered scheme names in registration order.
func SchemeNames() []string { return design.Names() }

// NewSchemeSimulator builds a Simulator configured by a registered
// design scheme at the given knobs: the scheme picks the register file
// organization, scheduler, RFC, and gating settings and prices each
// run's energy, while opts supplies the rest (SMs, profiling, scale).
// opts.Design, opts.Scheduler, and opts.FRFRegisters are ignored — the
// scheme owns them.
func NewSchemeSimulator(scheme DesignScheme, knobs DesignKnobs, opts Options) (*Simulator, error) {
	opts = opts.withDefaults()
	cfg, err := sim.DefaultConfig().WithScheme(scheme, knobs)
	if err != nil {
		return nil, err
	}
	cfg.NumSMs = opts.SMs
	cfg.Profiling = opts.Profiling
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{opts: opts, cfg: cfg, scheme: scheme, knobs: knobs}, nil
}

// Technique selects how the FRF-resident registers are identified.
type Technique = profile.Technique

// Profiling techniques.
const (
	ProfileStaticFirstN = profile.TechniqueStaticFirstN
	ProfileCompiler     = profile.TechniqueCompiler
	ProfilePilot        = profile.TechniquePilot
	ProfileHybrid       = profile.TechniqueHybrid
	// ProfileOracle uses measured top registers from a prior run (set
	// them on Config().Oracle) — the upper bound pilot profiling chases.
	ProfileOracle = profile.TechniqueOracle
)

// Scheduler selects the warp scheduling policy.
type Scheduler = sim.Policy

// Warp schedulers.
const (
	SchedulerLRR        = sim.PolicyLRR
	SchedulerGTO        = sim.PolicyGTO
	SchedulerTL         = sim.PolicyTL
	SchedulerFetchGroup = sim.PolicyFetchGroup
)

// Options configures a Simulator. The zero value selects the MRF@STV
// baseline with no profiling under LRR scheduling (the natural zero of
// each field); use PaperOptions for the paper's preferred design point.
type Options struct {
	// SMs is the number of streaming multiprocessors (default 2; the
	// full GTX 780 chip is 15).
	SMs int
	// Design is the register file organization; the zero value is
	// DesignMonolithicSTV. NewSimulator runs it as its registered
	// scheme: mrf-stv, mrf-ntv, part or part-adaptive.
	Design Design
	// Profiling is the FRF management technique; the zero value is
	// ProfileStaticFirstN.
	Profiling Technique
	// Scheduler is the warp scheduler; the zero value is SchedulerLRR.
	Scheduler Scheduler
	// Scale multiplies workload CTA counts (default 1.0).
	Scale float64
	// FRFRegisters is the number of registers per thread kept in the
	// fast partition, 1 to 16: the partitioned schemes' Size knob
	// (default 4, the paper's choice: 32 KB of 256 KB). Profiling
	// promotes as many. Monolithic designs ignore it.
	FRFRegisters int
}

// PaperOptions returns the paper's preferred design point: partitioned +
// adaptive FRF, hybrid profiling, GTO scheduling, two SMs, full-scale
// workloads.
func PaperOptions() Options {
	return Options{
		SMs:          2,
		Design:       DesignPartitionedAdaptive,
		Profiling:    ProfileHybrid,
		Scheduler:    SchedulerGTO,
		Scale:        1,
		FRFRegisters: 4,
	}
}

func (o Options) withDefaults() Options {
	if o.SMs == 0 {
		o.SMs = 2
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.FRFRegisters == 0 {
		o.FRFRegisters = 4
	}
	return o
}

// Simulator runs workloads on a configured GPU model. Its scheme
// configures the register file and prices every run.
type Simulator struct {
	opts   Options
	cfg    sim.Config
	scheme DesignScheme
	knobs  DesignKnobs
}

// designSchemes names the registered scheme each Design runs as.
var designSchemes = map[Design]string{
	DesignMonolithicSTV:       "mrf-stv",
	DesignMonolithicNTV:       "mrf-ntv",
	DesignPartitioned:         "part",
	DesignPartitionedAdaptive: "part-adaptive",
}

// NewSimulator validates the options and returns a simulator running
// opts.Design as its registered scheme, with FRFRegisters as a
// partitioned scheme's Size knob and opts.Scheduler as the warp
// scheduler. An unknown Design is an error.
func NewSimulator(opts Options) (*Simulator, error) {
	name, ok := designSchemes[opts.Design]
	if !ok {
		return nil, fmt.Errorf("pilotrf: unknown design %v", opts.Design)
	}
	opts = opts.withDefaults()
	var knobs DesignKnobs
	if opts.Design.Partitioned() {
		knobs.Size = opts.FRFRegisters
	}
	s, err := NewSchemeSimulator(design.MustLookup(name), knobs, opts)
	if err != nil {
		return nil, err
	}
	s.cfg.Policy = opts.Scheduler
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Config exposes the full low-level simulator configuration for advanced
// tuning before Run (latencies, collector counts, epoch thresholds, ...).
func (s *Simulator) Config() *sim.Config { return &s.cfg }

// Tracing types, re-exported for pipeline inspection: set a tracer with
// sim.Config().Tracer before running.
type (
	// Tracer receives pipeline events.
	Tracer = sim.Tracer
	// TraceEvent is one pipeline occurrence.
	TraceEvent = sim.TraceEvent
	// RingTracer keeps the last N events in a ring buffer.
	RingTracer = sim.RingTracer
	// WriterTracer streams events to an io.Writer.
	WriterTracer = sim.WriterTracer
)

// NewRingTracer returns a tracer holding the last n events.
func NewRingTracer(n int) *RingTracer { return sim.NewRingTracer(n) }

// Trace exporters and combinators, re-exported from the simulator.
type (
	// TraceKind classifies pipeline trace events.
	TraceKind = sim.TraceKind
	// TeeTracer fans events out to multiple tracers.
	TeeTracer = sim.TeeTracer
	// PerfettoTracer exports Chrome/Perfetto trace_event JSON.
	PerfettoTracer = sim.PerfettoTracer
	// NDJSONTracer exports newline-delimited JSON events.
	NDJSONTracer = sim.NDJSONTracer
)

// NewPerfettoTracer returns a tracer writing a Chrome/Perfetto
// trace_event JSON file to w; FlushTracer it after the run to emit the
// footer.
func NewPerfettoTracer(w io.Writer) *PerfettoTracer { return sim.NewPerfettoTracer(w) }

// NewNDJSONTracer returns a tracer streaming events as NDJSON to w;
// FlushTracer it after the run.
func NewNDJSONTracer(w io.Writer) *NDJSONTracer { return sim.NewNDJSONTracer(w) }

// NewTeeTracer returns a tracer forwarding each event to every given
// tracer (nils are skipped).
func NewTeeTracer(tracers ...Tracer) *TeeTracer { return sim.NewTeeTracer(tracers...) }

// FlushTracer drains a buffering tracer (no-op for unbuffered or nil).
func FlushTracer(t Tracer) error { return sim.FlushTracer(t) }

// Telemetry types, re-exported for stall attribution and per-epoch
// metric time series.
type (
	// StallCause labels why an SM issued nothing on a cycle.
	StallCause = telemetry.StallCause
	// StallBreakdown counts stall cycles per cause.
	StallBreakdown = telemetry.StallBreakdown
	// MetricsRecorder accumulates the per-epoch metric time series; write
	// it out with WriteCSV.
	MetricsRecorder = telemetry.Recorder
)

// Energy attribution types, re-exported for the streaming energy ledger
// and the FRF swap-decision audit trail.
type (
	// EnergyLedger attributes every RF access and leakage interval to a
	// (component, epoch, warp, register) bucket, conservation-checked
	// against the aggregate energy model.
	EnergyLedger = energy.Ledger
	// EpochCharge is one SM-epoch's access counts in the ledger.
	EpochCharge = energy.EpochCharge
	// HeatCell is one (warp, register) access-count bucket.
	HeatCell = energy.HeatCell
	// SwapAuditLog records every FRF placement decision.
	SwapAuditLog = profile.AuditLog
	// PlacementEvent is one recorded FRF placement.
	PlacementEvent = profile.PlacementEvent
	// PlacementReason says which mechanism placed a register.
	PlacementReason = profile.PlacementReason
)

// EnableEnergyLedger makes subsequent runs charge every RF access into
// the returned ledger, bucketed per component, per epochCycles-cycle
// epoch (0 = the adaptive-FRF default epoch), and per (warp, register)
// heat cell. Write it out with WriteEpochCSV, WriteHeatmapCSV, or
// WriteHeatmapJSON, and cross-check with CheckConservation.
func (s *Simulator) EnableEnergyLedger(epochCycles int) *EnergyLedger {
	led := energy.NewLedger(s.cfg.RF.Design, epochCycles)
	s.cfg.Energy = led
	return led
}

// EnableSwapAudit makes subsequent runs record every FRF placement
// decision — which technique placed which register at what cycle with
// what observed access count — into the returned audit log.
func (s *Simulator) EnableSwapAudit() *SwapAuditLog {
	log := &profile.AuditLog{}
	s.cfg.Audit = log
	return log
}

// EnableStallAttribution makes subsequent runs charge every zero-issue
// SM-cycle to a StallCause, exposed per kernel through
// Result.Stats.Kernels[i].StallBreakdown (and summed by
// Result.Stats.StallTotals).
func (s *Simulator) EnableStallAttribution() { s.cfg.Stalls = true }

// EnableMetrics makes subsequent runs sample per-SM metrics every
// epochCycles cycles (0 = the adaptive-FRF default epoch) into the
// returned recorder. It also implies stall attribution, which several of
// the sampled columns are derived from.
func (s *Simulator) EnableMetrics(epochCycles int) *MetricsRecorder {
	rec := sim.NewMetricsRecorder(epochCycles)
	s.cfg.Metrics = rec
	s.cfg.Stalls = true
	return rec
}

// Perfscope types, re-exported for profiling the simulator itself:
// wall-clock phase timings and the deterministic census of skippable
// cycles.
type (
	// PerfProfiler aggregates per-SM censuses (and, when enabled, tick
	// phase timings) folded in at kernel boundaries.
	PerfProfiler = perfscope.Profiler
	// PerfCensus counts SM cycles and the skippable ones: cycles where
	// nothing issued, fired, was served or dispatched while a scheduled
	// event was pending.
	PerfCensus = perfscope.Census
	// PerfReport is the versioned (pilotrf-perfscope/v2) JSON report
	// written by pilotsim -perf-out.
	PerfReport = perfscope.Report
	// PerfEntry is one workload x design row of a PerfReport.
	PerfEntry = perfscope.Entry
)

// EnablePerfscope makes subsequent runs profile the simulator itself
// into the returned profiler: the deterministic census always, and
// per-phase wall-clock timings when wallClock is set (wall time is
// non-deterministic). Read them back with the profiler's Census and
// PhaseNS methods. The hooks are bit-identical to an unprofiled run
// either way.
func (s *Simulator) EnablePerfscope(wallClock bool) *PerfProfiler {
	p := perfscope.New(wallClock)
	s.cfg.Perf = p
	return p
}

// ReadPerfReport loads and validates a pilotrf-perfscope/v2 JSON report.
func ReadPerfReport(path string) (*PerfReport, error) { return perfscope.ReadFile(path) }

// Flight recorder types, re-exported for deterministic run capture,
// replay verification, and cross-run divergence diffing.
type (
	// FlightRecorder captures a run's architectural commitments (issue
	// decisions, warp lifecycle, RF routing, swap installs, mode flips,
	// periodic state checksums) into an in-memory event log.
	FlightRecorder = flightrec.Recorder
	// Recording is one captured run: header plus ordered event stream,
	// serializable as pilotrf-flightrec/v3 NDJSON.
	Recording = flightrec.Log
	// FlightEvent is one recorded architectural commitment.
	FlightEvent = flightrec.Event
	// ReplayChecker verifies a live run against a prior recording and
	// reports the first mismatching event.
	ReplayChecker = flightrec.Checker
	// DiffReport locates the first divergence between two recordings.
	DiffReport = flightrec.DiffReport
)

// EnableFlightRecorder makes subsequent runs stream every architectural
// commitment into the returned recorder, with a state checksum every
// checksumEvery cycles (<= 0 selects the default interval). Serialize
// the recording with Recorder.Log().WriteNDJSON and diff two recordings
// with DiffRecordings or cmd/rfdiff.
func (s *Simulator) EnableFlightRecorder(checksumEvery int) *FlightRecorder {
	rec := sim.NewFlightRecorder(&s.cfg, "", int64(checksumEvery))
	s.cfg.Record = rec
	return rec
}

// EnableReplayCheck makes subsequent runs verify against the recording:
// after the run, the returned checker's Err reports nil when the replay
// matched event for event, and the first divergence otherwise.
func (s *Simulator) EnableReplayCheck(log *Recording) *ReplayChecker {
	chk := flightrec.NewChecker(log)
	s.cfg.Record = chk
	return chk
}

// DiffRecordings aligns two recordings and reports their first
// divergence with window events of context on each side.
func DiffRecordings(a, b *Recording, window int) *DiffReport {
	return flightrec.Diff(a, b, window)
}

// ReadRecording loads a pilotrf-flightrec/v3 NDJSON recording.
func ReadRecording(path string) (*Recording, error) { return flightrec.ReadFile(path) }

// Resilience types, re-exported for soft-error injection campaigns,
// ECC/parity protection, and silent-data-corruption detection.
type (
	// FaultConfig parameterizes the seeded soft-error injector; the
	// zero value disables injection, a positive Rate enables it.
	FaultConfig = fault.Config
	// FaultStats counts injection activity and protection outcomes
	// (exposed per kernel via KernelStats.Faults and summed by
	// Result.Stats.FaultTotals).
	FaultStats = fault.Stats
	// Protection is one partition's protection code (none, parity, or
	// SECDED ECC).
	Protection = fault.Protection
	// ProtectionScheme assigns a Protection to each RF partition.
	ProtectionScheme = fault.Scheme
	// UnrecoverableFault is the structured error a run aborts with when
	// a detected-but-uncorrectable fault exhausts its re-issue retries;
	// unwrap it with errors.As.
	UnrecoverableFault = fault.UnrecoverableError
	// SDCProbe distills a run into per-kernel dataflow digests; compare
	// a faulty run's probe against a fault-free golden probe to detect
	// silent data corruption.
	SDCProbe = fault.DigestProbe
)

// Protection codes for ProtectionScheme slots.
const (
	ProtectNone   = fault.ProtectNone
	ProtectParity = fault.ProtectParity
	ProtectSECDED = fault.ProtectSECDED
)

// Protection scheme presets.
var (
	// Unprotected leaves every partition bare (the SDC baseline).
	Unprotected = fault.Unprotected
	// FullParity puts parity + re-issue retry on every partition.
	FullParity = fault.FullParity
	// FullSECDED puts SECDED ECC on every partition.
	FullSECDED = fault.FullSECDED
	// PaperProtection matches protection to operating point: SECDED on
	// the near-threshold SRF (and NTV MRF), parity on the STV FRF.
	PaperProtection = fault.PaperScheme
)

// EnableFaultInjection makes subsequent runs inject soft errors into the
// RF partitions and the swap-table CAM, deterministically from
// cfg.Seed. Outcomes land in FaultStats; an uncorrectable fault aborts
// the run with an *UnrecoverableFault.
func (s *Simulator) EnableFaultInjection(cfg FaultConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.cfg.Fault = &cfg
	return nil
}

// EnableProtection selects the ECC/parity scheme subsequent runs check
// faults against. Check-bit energy overhead is priced into any enabled
// EnergyLedger, so protected and unprotected runs are comparable.
func (s *Simulator) EnableProtection(scheme ProtectionScheme) error {
	if err := scheme.Validate(); err != nil {
		return err
	}
	s.cfg.Protect = scheme
	return nil
}

// EnableSDCProbe makes subsequent runs stream their dataflow digests
// into the returned probe. Run once fault-free and once with injection
// enabled, then probe.Diverged(golden) flags silent data corruption. It
// claims the recording sink, so it is mutually exclusive with
// EnableFlightRecorder and EnableReplayCheck.
func (s *Simulator) EnableSDCProbe() *SDCProbe {
	p := fault.NewDigestProbe()
	s.cfg.Record = p
	return p
}

// Result is the outcome of running one workload.
type Result struct {
	// Stats holds the raw simulator measurements per kernel.
	Stats sim.RunStats
	// Energy is the RF energy report for the simulated design.
	Energy energy.Report
	// BaselineDynamicPJ is what the same accesses would cost on the
	// MRF@STV baseline.
	BaselineDynamicPJ float64
}

// Cycles returns the total execution time in SM cycles.
func (r Result) Cycles() int64 { return r.Stats.TotalCycles() }

// FRFShare returns the fraction of RF accesses served by the fast
// partition (0 for monolithic designs).
func (r Result) FRFShare() float64 { return r.Stats.FRFShare() }

// DynamicSavings returns the RF dynamic-energy saving versus the MRF@STV
// baseline (the paper's headline 54% for the full design).
func (r Result) DynamicSavings() float64 {
	return energy.Savings(r.Energy.DynamicPJ, r.BaselineDynamicPJ)
}

// TopNShare returns the fraction of accesses captured by each kernel's
// top-n registers (Figure 2's metric).
func (r Result) TopNShare(n int) float64 { return r.Stats.TopNShareByKernel(n) }

// RunBenchmark runs one of the seventeen Table I benchmarks by name.
func (s *Simulator) RunBenchmark(name string) (Result, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return Result{}, err
	}
	return s.runWorkload(w)
}

// RunAll runs the whole suite and returns results keyed by benchmark.
func (s *Simulator) RunAll() (map[string]Result, error) {
	out := make(map[string]Result, 17)
	for _, w := range workloads.All() {
		res, err := s.runWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		out[w.Name] = res
	}
	return out, nil
}

func (s *Simulator) runWorkload(w workloads.Workload) (Result, error) {
	g, err := sim.New(s.cfg)
	if err != nil {
		return Result{}, err
	}
	rs, err := g.RunKernels(w.Name, w.Scale(s.opts.Scale).Kernels)
	if err != nil {
		return Result{}, err
	}
	return s.resultOf(rs), nil
}

func (s *Simulator) resultOf(rs sim.RunStats) Result {
	return Result{
		Stats:             rs,
		Energy:            s.scheme.Energy(s.knobs, rs.DesignRun()),
		BaselineDynamicPJ: energy.BaselineDynamicPJ(rs.TotalAccesses()),
	}
}

// RunKernels executes custom kernels (built with NewKernelBuilder) on the
// simulator.
func (s *Simulator) RunKernels(name string, kernels []Kernel) (Result, error) {
	g, err := sim.New(s.cfg)
	if err != nil {
		return Result{}, err
	}
	rs, err := g.RunKernels(name, kernels)
	if err != nil {
		return Result{}, err
	}
	return s.resultOf(rs), nil
}

// Benchmarks lists the seventeen Table I benchmark names.
func Benchmarks() []string { return workloads.Names() }

// BenchmarkCategory returns the paper's category (1, 2, or 3) for a
// benchmark.
func BenchmarkCategory(name string) (int, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return 0, err
	}
	return int(w.Category), nil
}
