// Package sim is a cycle-level GPU timing simulator specialized for
// register file studies: streaming multiprocessors with warp contexts,
// SIMT divergence stacks, scoreboards, GTO/LRR/two-level warp schedulers,
// operand collectors arbitrating over banked register files, execution
// pipelines, a latency/bandwidth memory model, CTA scheduling, and the
// pilot-warp profiling hardware of the paper.
//
// The simulator is functional-first: instruction semantics execute at
// issue time (so loop trip counts, divergence, and register access counts
// are exact), while operand collection, bank arbitration, execution
// latency, and writeback model timing. Fetch/decode and the cache
// hierarchy are abstracted (a resident warp always has its next
// instruction; global memory is a fixed-latency, bounded-bandwidth
// stream), which is the standard configuration for RF-focused studies.
package sim

import (
	"fmt"

	"pilotrf/internal/design"
	"pilotrf/internal/energy"
	"pilotrf/internal/fault"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/isa"
	"pilotrf/internal/perfscope"
	"pilotrf/internal/profile"
	"pilotrf/internal/regfile"
	"pilotrf/internal/rfc"
	"pilotrf/internal/telemetry"
)

// Policy selects the warp scheduling policy.
type Policy uint8

// Warp scheduler policies.
const (
	// PolicyLRR is loose round-robin (the "fetch group" baseline).
	PolicyLRR Policy = iota
	// PolicyGTO is greedy-then-oldest.
	PolicyGTO
	// PolicyTL is the two-level scheduler of the RFC design: a small
	// active pool scheduled round-robin; warps demote on long-latency
	// operations and promote when their memory returns.
	PolicyTL
	// PolicyFetchGroup is Narasiman et al.'s two-level warp scheduler:
	// warps are split into fetch groups scheduled round-robin within
	// the group; the scheduler only moves to the next group when the
	// current one has nothing to issue, staggering long-latency
	// operations across groups.
	PolicyFetchGroup
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyLRR:
		return "LRR"
	case PolicyGTO:
		return "GTO"
	case PolicyTL:
		return "TL"
	case PolicyFetchGroup:
		return "FetchGroup"
	default:
		return fmt.Sprintf("POLICY_%d", uint8(p))
	}
}

// Config describes the simulated GPU. DefaultConfig follows the paper's
// Table II (Kepler GTX 780-class SM) with a reduced SM count for
// simulation speed; KeplerConfig restores the full 15-SM chip.
type Config struct {
	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// WarpSlotsPerSM is the maximum resident warps per SM (64).
	WarpSlotsPerSM int
	// MaxCTAsPerSM bounds concurrent CTAs per SM (16).
	MaxCTAsPerSM int
	// WarpRegBudget is the number of warp-register slots in the RF
	// (256 KB / 128 B = 2048), a CTA residency limit.
	WarpRegBudget int
	// Schedulers is the number of warp schedulers per SM (4).
	Schedulers int
	// IssuePerScheduler is the dual-issue width per scheduler (2).
	IssuePerScheduler int
	// OperandCollectors is the number of collector units per SM (24).
	OperandCollectors int

	// Policy selects the warp scheduler.
	Policy Policy
	// TLActiveWarps is the two-level scheduler's total active pool per
	// SM (split evenly among schedulers).
	TLActiveWarps int
	// FetchGroupWarps is the fetch-group size per scheduler for
	// PolicyFetchGroup (default 4).
	FetchGroupWarps int

	// RF configures the register file design under evaluation.
	RF regfile.Config

	// Profiling selects the FRF management technique; TopN is the
	// number of promoted registers (4).
	Profiling profile.Technique
	ProfTopN  int
	// PilotWarpIndex selects which warp of the first CTA launched on
	// each SM becomes the pilot (0 = the first, the paper's choice;
	// Section III-A2 argues any warp works, which the pilot-choice
	// sensitivity experiment verifies).
	PilotWarpIndex int
	// Oracle supplies the measured top registers for
	// profile.TechniqueOracle (from a prior run).
	Oracle []isa.Reg

	// RFC, when EntriesPerWarp is positive, puts a register file cache
	// (sized per active warp) in front of a monolithic MRF, which backs
	// it at RF.Lat.MRF.
	RFC rfc.Config
	// RFCCompilerHints switches the RFC to compiler-assisted allocation:
	// at each kernel launch the compiler's static top-N registers (N =
	// the RFC's entries per warp) become the cache's admission hints and
	// every other register bypasses to the MRF (arXiv 2310.17501).
	RFCCompilerHints bool

	// Gating, when set, attaches a liveness gating tracker per SM
	// (GREENER-style register power gating): rows wake on first write,
	// a warp's rows sleep at retire, and KernelStats.Gating accumulates
	// the live/gated row-cycle counts the design's leakage pricing
	// uses. Purely observational — timing is bit-identical either way.
	Gating *design.GatingConfig

	// Execution latencies in cycles.
	ALULatency    int
	FPULatency    int
	SFULatency    int
	BranchLatency int
	SharedLatency int
	MemLatency    int
	// MaxMemInflight bounds concurrent global-memory transactions per
	// SM (the bandwidth model).
	MaxMemInflight int

	// WritebackForwarding bypasses results to dependent instructions as
	// soon as execution completes, instead of waiting for the register
	// write to retire through the banks. GPGPU-Sim models this
	// forwarding; leaving it off makes the pipeline more sensitive to
	// RF latency (the divergence EXPERIMENTS.md documents). The bank
	// write still occurs for energy and bank-occupancy accounting.
	WritebackForwarding bool

	// CollectPerWarpCTAs enables per-warp register histograms for the
	// first N CTAs (the Section II access-similarity analysis).
	CollectPerWarpCTAs int

	// Tracer, when set, receives pipeline events (issue, bank access,
	// dispatch, writeback, memory, CTA/warp lifecycle, FRF mode
	// switches). Nil disables tracing with no overhead.
	Tracer Tracer

	// Stalls enables stall-cycle attribution: every zero-issue SM-cycle
	// is charged to exactly one telemetry.StallCause, populating
	// KernelStats.StallBreakdown (and SMCycles/BusyCycles). Telemetry is
	// purely observational — cycle counts are identical either way.
	Stalls bool

	// Metrics, when set, samples per-SM time-series rows into the
	// recorder every Metrics.Epoch cycles (see NewMetricsRecorder) and
	// implies stall attribution. Nil disables sampling with no overhead.
	Metrics *telemetry.Recorder

	// Energy, when set, streams energy attribution into the ledger:
	// every serviced bank transaction is charged to a (component, epoch,
	// warp, architectural-register) bucket, folded into the ledger at
	// epoch and kernel boundaries. The ledger's design must match
	// RF.Design so its pricing reproduces the aggregate energy report
	// bit-exactly. Nil disables attribution with no overhead.
	Energy *energy.Ledger

	// Audit, when set, records a profile.PlacementEvent for every
	// FRF-resident register at each swapping-table (re)configuration —
	// the swap-decision audit trail. Nil disables auditing with no
	// overhead.
	Audit *profile.AuditLog

	// Record, when set, streams flight-recorder events into the sink:
	// issue decisions, warp lifecycle transitions, FRF/SRF routing,
	// swap-table installs, adaptive mode flips, and periodic
	// architectural-state checksums every Sink.ChecksumEvery() cycles.
	// A flightrec.Recorder captures a run; a flightrec.Checker verifies
	// a replay against a prior recording. Nil disables recording with no
	// overhead.
	Record flightrec.Sink

	// Perf, when set, attaches the perfscope profiler: a deterministic
	// skip-headroom census of every SM cycle (busy / active-no-issue /
	// skippable / stalled-unknown) and, when the profiler was built with
	// wall-clock enabled, per-phase tick timing. Purely observational —
	// the simulation is bit-identical either way — and nil disables it
	// with no overhead beyond one nil check per hook.
	Perf *perfscope.Profiler

	// Fault, when set, enables deterministic soft-error injection: each
	// SM runs an independent (seed-salted) fault process striking RF
	// cells and the swap-table CAM at rates scaled by the partition's
	// operating point. Nil disables injection — the hot path then costs
	// one nil check, perturbs nothing, and allocates nothing.
	Fault *fault.Config

	// Protect selects the per-partition protection scheme faults are
	// adjudicated against (and whose check-bit energy overhead the
	// ledger prices). The zero value is the unprotected baseline.
	Protect fault.Scheme

	// MaxCycles aborts runaway simulations.
	MaxCycles int64

	// Seed drives the deterministic memory-content hash (and thus
	// data-dependent divergence).
	Seed uint64
}

// DefaultConfig returns the paper's SM configuration (Table II) with two
// SMs — the simulation default used throughout the experiments; per-SM
// behaviour, which is everything the paper reports, is unaffected by the
// chip-level SM count.
func DefaultConfig() Config {
	return Config{
		NumSMs:             2,
		WarpSlotsPerSM:     64,
		MaxCTAsPerSM:       16,
		WarpRegBudget:      2048,
		Schedulers:         4,
		IssuePerScheduler:  2,
		OperandCollectors:  24,
		Policy:             PolicyGTO,
		TLActiveWarps:      8,
		FetchGroupWarps:    4,
		RF:                 regfile.DefaultConfig(regfile.DesignMonolithicSTV),
		Profiling:          profile.TechniqueHybrid,
		ProfTopN:           4,
		ALULatency:         4,
		FPULatency:         4,
		SFULatency:         16,
		BranchLatency:      4,
		SharedLatency:      24,
		MemLatency:         200,
		MaxMemInflight:     48,
		CollectPerWarpCTAs: 0,
		MaxCycles:          200_000_000,
		Seed:               1,
	}
}

// KeplerConfig returns the full GTX 780 chip (15 SMs).
func KeplerConfig() Config {
	cfg := DefaultConfig()
	cfg.NumSMs = 15
	return cfg
}

// Validate checks structural invariants.
func (c *Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("sim: %d SMs", c.NumSMs)
	case c.Schedulers <= 0 || c.IssuePerScheduler <= 0:
		return fmt.Errorf("sim: schedulers %d x issue %d", c.Schedulers, c.IssuePerScheduler)
	case c.WarpSlotsPerSM <= 0 || c.WarpSlotsPerSM%c.Schedulers != 0:
		return fmt.Errorf("sim: %d warp slots not divisible by %d schedulers", c.WarpSlotsPerSM, c.Schedulers)
	case c.OperandCollectors <= 0:
		return fmt.Errorf("sim: %d operand collectors", c.OperandCollectors)
	case c.MemLatency <= 0 || c.MaxMemInflight <= 0:
		return fmt.Errorf("sim: memory latency %d / inflight %d", c.MemLatency, c.MaxMemInflight)
	case c.Policy == PolicyTL && c.TLActiveWarps < c.Schedulers:
		return fmt.Errorf("sim: TL active pool %d smaller than %d schedulers", c.TLActiveWarps, c.Schedulers)
	case c.Policy == PolicyFetchGroup && c.FetchGroupWarps <= 0:
		return fmt.Errorf("sim: fetch group of %d warps", c.FetchGroupWarps)
	case c.RFC.EntriesPerWarp < 0:
		return fmt.Errorf("sim: %d RFC entries per warp", c.RFC.EntriesPerWarp)
	case c.RFC.EntriesPerWarp > 0 && c.RFC.Warps <= 0:
		return fmt.Errorf("sim: RFC enabled without warp storage")
	case c.RFC.EntriesPerWarp > 0 && c.RF.Design.Partitioned():
		return fmt.Errorf("sim: the RFC fronts a monolithic MRF, not a partitioned design")
	case c.RFCCompilerHints && c.RFC.EntriesPerWarp == 0:
		return fmt.Errorf("sim: RFC compiler hints without an RFC")
	case c.Gating != nil && c.Gating.Granularity <= 0:
		return fmt.Errorf("sim: gating granularity %d", c.Gating.Granularity)
	case c.ProfTopN <= 0:
		return fmt.Errorf("sim: profiling top-N %d", c.ProfTopN)
	case c.Energy != nil && c.Energy.Design() != c.RF.Design:
		return fmt.Errorf("sim: energy ledger priced for %v but RF design is %v",
			c.Energy.Design(), c.RF.Design)
	case c.PilotWarpIndex < 0:
		return fmt.Errorf("sim: pilot warp index %d", c.PilotWarpIndex)
	}
	if err := c.Protect.Validate(); err != nil {
		return err
	}
	if c.Fault != nil {
		if err := c.Fault.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// MaxIssuePerCycle returns the SM's peak issue rate (8 in the paper).
func (c *Config) MaxIssuePerCycle() int { return c.Schedulers * c.IssuePerScheduler }
