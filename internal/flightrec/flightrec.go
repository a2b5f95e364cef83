// Package flightrec is the simulator's flight recorder: a streaming,
// versioned capture of every architectural commitment a run makes —
// issue decisions, warp lifecycle transitions, FRF/SRF routing,
// swap-table installs, adaptive-FRF mode flips, and periodic state
// checksums (register-file content, scoreboard, per-warp PCs).
//
// The simulator is fully deterministic (sim.Config.Seed drives all
// data-dependent behaviour), so a recording is a complete, replayable
// description of a run. Three tools build on that:
//
//   - Recorder captures a run into an in-memory event log that
//     round-trips through a versioned NDJSON file (Log.WriteNDJSON /
//     ReadNDJSON).
//   - Checker replays a recording against a fresh run of the same
//     configuration and reports the first mismatching event — proving
//     determinism and guarding refactors of the timing model.
//   - Diff aligns two recordings (different seeds, designs, schedulers,
//     or git revisions) and reports the first-divergence cycle with
//     windowed event context and the subsystem that diverged first.
//
// Both Recorder and Checker implement Sink, the interface the simulator
// streams events into; a nil Sink disables recording with no overhead.
package flightrec

import (
	"encoding/json"
	"fmt"
	"slices"
)

// Schema is the versioned tag stamped into every recording header; a
// reader rejects logs whose schema it does not understand. v3 changed
// the register-file hash of checksum events, so a v2 log would diverge
// at its first checksum.
const Schema = "pilotrf-flightrec/v3"

// DefaultChecksumEvery is the default interval, in SM cycles, between
// periodic architectural-state checksums.
const DefaultChecksumEvery = 64

// Kind classifies a recorded architectural commitment.
type Kind uint8

// Event kinds, in rough pipeline order.
const (
	// KindKernelBegin marks a kernel launch (Detail = kernel name,
	// A = CTA count). Emitted once per kernel with SM = -1.
	KindKernelBegin Kind = iota
	// KindKernelEnd marks kernel completion (Cycle = total cycles,
	// A = issued warp instructions). Emitted once per kernel with SM = -1.
	KindKernelEnd
	// KindCTALaunch is one CTA placed on an SM (A = CTA id, B = warps).
	KindCTALaunch
	// KindIssue is one warp instruction issued (Warp = slot, PC,
	// A = opcode, B = active lane mask, Detail = mnemonic).
	KindIssue
	// KindRoute is one serviced RF bank transaction routed to a physical
	// partition (Warp = slot, A = partition, B = architected register).
	KindRoute
	// KindSwapInstall is a swapping-table (re)configuration
	// (A = mapping hash, Detail = technique/phase).
	KindSwapInstall
	// KindModeFlip is an adaptive-FRF power-mode transition (A = 1 when
	// entering low power, 0 when leaving).
	KindModeFlip
	// KindBarrierRelease is a CTA barrier opening (A = CTA id,
	// B = warps released).
	KindBarrierRelease
	// KindWarpRetire is one warp completing all its threads
	// (Warp = slot, A = CTA id).
	KindWarpRetire
	// KindChecksum is a periodic architectural-state checksum
	// (A = register-file content hash over all live warps, B = control
	// hash: per-warp PC stacks, predicates, scoreboards, swap mapping,
	// FRF power mode).
	KindChecksum
	// KindReadHash is an order-invariant digest of every register value
	// consumed by executed instructions so far (A = commutative FNV-mix
	// sum over (CTA, warp, sequence, register, lane, value) tuples,
	// B = operand-read count). Unlike KindChecksum, which hashes state in
	// warp-slot order, this digest is invariant to warp interleaving and
	// CTA placement, so two runs whose timing differs but whose dataflow
	// agrees produce equal read hashes — the discriminator fault
	// campaigns use to separate silent data corruption from masked
	// faults.
	KindReadHash

	numKinds
)

// kindNames indexes Kind string forms.
var kindNames = [numKinds]string{
	"kernel-begin", "kernel-end", "cta-launch", "issue", "route",
	"swap-install", "mode-flip", "barrier-release", "warp-retire", "checksum",
	"read-hash",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// KindOf resolves a wire name back to its Kind.
func KindOf(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Subsystem names the simulator subsystem that commits events of this
// kind — the unit Diff blames when a divergence starts with the kind.
func (k Kind) Subsystem() string {
	switch k {
	case KindIssue:
		return "warp-scheduler"
	case KindRoute:
		return "rf-routing"
	case KindSwapInstall:
		return "profiling/swap-table"
	case KindModeFlip:
		return "adaptive-frf"
	case KindCTALaunch, KindBarrierRelease, KindWarpRetire:
		return "warp-lifecycle"
	case KindChecksum:
		return "architectural-state"
	case KindReadHash:
		return "dataflow"
	case KindKernelBegin, KindKernelEnd:
		return "kernel-lifecycle"
	default:
		return "unknown"
	}
}

// MarshalJSON writes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON reads a wire name back into a Kind.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	kk, ok := KindOf(s)
	if !ok {
		return fmt.Errorf("flightrec: unknown event kind %q", s)
	}
	*k = kk
	return nil
}

// Event is one recorded architectural commitment. Events are plain
// comparable values: replay verification is `==` over the stream.
type Event struct {
	// Cycle is the SM-local (kernel-local) cycle of the commitment.
	Cycle int64 `json:"c"`
	// SM is the committing SM, or -1 for run-scope events.
	SM int `json:"sm"`
	// Kind classifies the commitment.
	Kind Kind `json:"k"`
	// Warp is the SM-local warp slot, -1 when not warp-specific.
	Warp int `json:"w"`
	// PC is the program counter, -1 when not instruction-specific.
	PC int `json:"pc"`
	// A and B are kind-specific payloads (see the Kind docs).
	A uint64 `json:"a,omitempty"`
	B uint64 `json:"b,omitempty"`
	// Detail is a kind-specific human-readable annotation.
	Detail string `json:"d,omitempty"`
}

// String renders the event as one log line.
func (e Event) String() string {
	return fmt.Sprintf("%8d sm%-2d %-15s w%-3d pc%-4d a=%#x b=%#x %s",
		e.Cycle, e.SM, e.Kind, e.Warp, e.PC, e.A, e.B, e.Detail)
}

// Meta is the recording header: the schema version plus the
// configuration fingerprint a replay must reproduce.
type Meta struct {
	Schema        string `json:"schema"`
	Label         string `json:"label,omitempty"`
	Seed          uint64 `json:"seed"`
	Design        string `json:"design"`
	Profiling     string `json:"profiling"`
	Policy        string `json:"policy"`
	SMs           int    `json:"sms"`
	ChecksumEvery int64  `json:"checksum_every"`
}

// Fields returns the fingerprint as ordered (name, value) pairs, the
// form Diff uses to report header differences.
func (m Meta) Fields() [][2]string {
	return [][2]string{
		{"label", m.Label},
		{"seed", fmt.Sprint(m.Seed)},
		{"design", m.Design},
		{"profiling", m.Profiling},
		{"policy", m.Policy},
		{"sms", fmt.Sprint(m.SMs)},
		{"checksum_every", fmt.Sprint(m.ChecksumEvery)},
	}
}

// Sink receives the simulator's event stream. Recorder captures it;
// Checker verifies it against a prior recording.
type Sink interface {
	// Record accepts one event. Implementations must be cheap: the
	// simulator calls them inline on hot paths.
	Record(Event)
	// ChecksumEvery returns the periodic-checksum interval in cycles.
	ChecksumEvery() int64
}

// Recorder captures a run's event stream in memory. It is not
// synchronized: attach each recorder to exactly one simulation.
type Recorder struct {
	meta   Meta
	events []Event
}

// NewRecorder returns an empty recorder for the given configuration
// fingerprint. The schema tag is forced to the package Schema and a
// non-positive checksum interval selects DefaultChecksumEvery.
func NewRecorder(meta Meta) *Recorder {
	meta.Schema = Schema
	if meta.ChecksumEvery <= 0 {
		meta.ChecksumEvery = DefaultChecksumEvery
	}
	return &Recorder{meta: meta}
}

// Record implements Sink. A full log doubles its capacity, where append
// would grow a long one by only a quarter and copy it far more often.
func (r *Recorder) Record(e Event) {
	if len(r.events) == cap(r.events) {
		r.events = slices.Grow(r.events, len(r.events))
	}
	r.events = append(r.events, e)
}

// ChecksumEvery implements Sink.
func (r *Recorder) ChecksumEvery() int64 { return r.meta.ChecksumEvery }

// Len returns the number of captured events.
func (r *Recorder) Len() int { return len(r.events) }

// Log returns the recording as a Log. The events slice is shared, not
// copied: stop the run before reading.
func (r *Recorder) Log() *Log { return &Log{Meta: r.meta, Events: r.events} }
