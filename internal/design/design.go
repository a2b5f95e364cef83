// Package design is the register-file design plug-in registry: every RF
// organization the simulator can evaluate — the paper's four designs and
// the rival schemes from the related work — is a registered Scheme that
// names itself, validates its configuration knobs, maps them onto
// simulator settings, and prices a finished run's energy.
//
// The package sits below internal/sim (it imports only the circuit and
// bookkeeping models), so simulator tests can sweep All() without an
// import cycle; sim.Config.WithScheme applies a Scheme's Settings to a
// simulator configuration.
package design

import (
	"fmt"
	"sort"
	"strings"

	"pilotrf/internal/energy"
	"pilotrf/internal/regfile"
	"pilotrf/internal/rfc"
)

// Knobs are a scheme's configuration parameters. The zero value selects
// every scheme's default operating point.
type Knobs struct {
	// Size is the scheme's capacity knob: FRF registers per warp for the
	// partitioned designs, RFC entries per warp for the cache schemes,
	// rows per gating domain for the liveness-gated scheme. 0 selects
	// the scheme default; schemes without a capacity knob require 0.
	Size int
	// Voltage selects the supply point ("stv" or "ntv") for schemes
	// with a voltage knob; "" selects the scheme default. Schemes whose
	// name fixes the voltage (mrf-stv, mrf-ntv) or whose structure does
	// (the partitioned designs mix both regions) require "".
	Voltage string
}

// String renders the knobs canonically ("default" for the zero value),
// the form reports and cache keys use.
func (k Knobs) String() string {
	if k == (Knobs{}) {
		return "default"
	}
	var parts []string
	if k.Size != 0 {
		parts = append(parts, fmt.Sprintf("size=%d", k.Size))
	}
	if k.Voltage != "" {
		parts = append(parts, "vdd="+k.Voltage)
	}
	return strings.Join(parts, ",")
}

// GatingConfig enables liveness-driven register power gating: rows wake
// on their first write and a warp's rows power off when it retires.
type GatingConfig struct {
	// Granularity is the number of register rows per gating domain: 1
	// gates every row independently; larger domains cut sleep-transistor
	// overhead but keep a whole domain awake for one live row.
	Granularity int
}

// Settings are the simulator-facing knob resolution of a scheme: a
// neutral struct sim.Config.WithScheme maps onto the full configuration.
// Zero-valued fields leave the simulator default untouched.
type Settings struct {
	// RF is the register file organization (always set).
	RF regfile.Config
	// ProfTopN, when positive, overrides the profiling top-N (the
	// partitioned schemes pin it to their FRF capacity).
	ProfTopN int
	// TwoLevel selects the two-level warp scheduler the RFC designs
	// require; TLActiveWarps, when positive, sizes its active pool.
	TwoLevel      bool
	TLActiveWarps int
	// RFC, when it has entries, puts a register file cache in front of
	// the (monolithic) RF; RFCCompilerHints switches it to
	// compiler-managed allocation. The cache is backed by the RF's own
	// MRF latency.
	RFC              rfc.Config
	RFCCompilerHints bool
	// Gating, when non-nil, attaches the liveness gating tracker.
	Gating *GatingConfig
}

// Run is the neutral summary of a finished simulation a Scheme prices:
// the integer event counts the simulator accumulated, with no simulator
// types involved.
type Run struct {
	// PartAccesses are the bank transactions serviced per partition
	// (indexed by regfile.Partition).
	PartAccesses [4]uint64
	// Cycles is the summed kernel execution time.
	Cycles int64
	// TotalAccesses counts warp-level operand accesses (reads + writes),
	// the baseline-normalization denominator. Under an RFC this exceeds
	// the bank transactions — cache hits never reach a bank.
	TotalAccesses uint64
	// RFC carries the cache event counts (zero without an RFC).
	RFC rfc.Stats
	// Gating carries the liveness-gating counters (zero without gating).
	Gating GatingStats
}

// Scheme is one registered register-file design. Implementations are
// stateless descriptors: per-run state (cache tags, gating masks) lives
// in the simulator objects the Settings configure.
type Scheme interface {
	// Name is the unique registry key, also the CLI spelling.
	Name() string
	// Doc is a one-line description for tables and usage text.
	Doc() string
	// DefaultKnobs returns the scheme's default operating point.
	DefaultKnobs() Knobs
	// Validate rejects knob combinations the scheme cannot realize.
	Validate(k Knobs) error
	// Grid returns the operating points a design-space sweep explores;
	// every entry passes Validate and the default point is included.
	Grid() []Knobs
	// Settings resolves knobs to simulator settings.
	Settings(k Knobs) (Settings, error)
	// Energy prices a finished run at the given knobs. The report's
	// Design is Settings(k).RF.Design, the design an energy ledger of
	// the run is priced for.
	Energy(k Knobs, r Run) energy.Report
}

// registry holds schemes in registration order (the canonical report
// order: the paper's designs first, then the rivals).
var registry []Scheme

// Register adds a scheme to the registry. It panics on a duplicate or
// empty name — registration is init-time wiring, not input handling.
func Register(s Scheme) {
	name := s.Name()
	if name == "" {
		panic("design: scheme with empty name")
	}
	for _, have := range registry {
		if have.Name() == name {
			panic(fmt.Sprintf("design: duplicate scheme %q", name))
		}
	}
	registry = append(registry, s)
}

// Lookup returns the scheme registered under name.
func Lookup(name string) (Scheme, bool) {
	for _, s := range registry {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}

// Resolve returns the scheme registered under name, or an error listing
// every valid name (the form the command-line tools report).
func Resolve(name string) (Scheme, error) {
	if s, ok := Lookup(name); ok {
		return s, nil
	}
	return nil, fmt.Errorf("unknown design %q (valid: %s)", name, strings.Join(SortedNames(), ", "))
}

// MustLookup returns the scheme registered under name, panicking if it
// does not exist (for tests and init-time wiring).
func MustLookup(name string) Scheme {
	s, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("design: unknown scheme %q", name))
	}
	return s
}

// All returns every registered scheme in registration order — the sweep
// order property tests and reports use.
func All() []Scheme {
	out := make([]Scheme, len(registry))
	copy(out, registry)
	return out
}

// Names returns every registered scheme name in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name()
	}
	return out
}

// SortedNames returns the scheme names sorted alphabetically (for the
// Resolve error).
func SortedNames() []string {
	out := Names()
	sort.Strings(out)
	return out
}

// averageLeakage sets a report's LeakageMW to the run's average leakage
// power (pJ / ns = mW), for schemes whose leakage is not one array
// constant.
func averageLeakage(rep energy.Report) energy.Report {
	if rep.Cycles > 0 {
		rep.LeakageMW = rep.LeakagePJ * energy.ClockGHz / float64(rep.Cycles)
	}
	return rep
}

// voltageOf resolves a Knobs voltage string against a scheme default,
// returning the regfile design for a monolithic MRF at that voltage.
func voltageOf(v, def string) (regfile.Design, error) {
	if v == "" {
		v = def
	}
	switch v {
	case "stv":
		return regfile.DesignMonolithicSTV, nil
	case "ntv":
		return regfile.DesignMonolithicNTV, nil
	default:
		return 0, fmt.Errorf("design: voltage %q (want stv or ntv)", v)
	}
}
