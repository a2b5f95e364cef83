// Package perfscope measures the simulator itself: where wall-clock
// time goes inside the SM tick, and what share of SM cycles only wait
// for a scheduled event.
//
// It has two instruments, both hooked into the sim package behind one
// nil-checked Config.Perf pointer (zero perturbation and zero allocation
// when disabled, like every other observer):
//
//   - A wall-clock phase profiler: every tick's time is split across the
//     pipeline phases (event callbacks, fault adjudication, issue,
//     operand collection, RF banks, adaptive control, telemetry, energy
//     ledger, flight recorder). Sampling-free — each enabled tick is
//     timed, so short phases are not aliased away.
//
//   - A deterministic census: SM cycles, and of them the skippable ones,
//     where nothing issued, no event fired, no bank served a
//     transaction, no collector dispatched, and a scheduled event is
//     pending. The census depends only on architectural state, so
//     reports are byte-reproducible.
//
// The versioned JSON report (pilotrf-perfscope/v2) is written by
// pilotsim -perf-out and read back by Read/ReadFile.
package perfscope

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sort"
	"sync"
	"time"
)

// Phase labels one timed slice of the SM tick.
type Phase int

// Tick phases, in pipeline order.
const (
	// PhaseEvents is the scheduled-event sweep: memory returns,
	// execution-latency expiries, writeback completions.
	PhaseEvents Phase = iota
	// PhaseFault is soft-error arrival and adjudication (zero when fault
	// injection is off).
	PhaseFault
	// PhaseIssue is warp scheduling plus functional execution of the
	// issued instructions.
	PhaseIssue
	// PhaseCollect is the operand-collector sweep dispatching gathered
	// instructions.
	PhaseCollect
	// PhaseBanks is RF bank arbitration and service.
	PhaseBanks
	// PhaseAdaptive is the adaptive-FRF controller plus per-cycle
	// statistics bookkeeping.
	PhaseAdaptive
	// PhaseTelemetry is stall classification and epoch sampling.
	PhaseTelemetry
	// PhaseEnergy is the energy ledger's per-cycle accumulation.
	PhaseEnergy
	// PhaseRecord is the flight recorder's event and checksum hooks.
	PhaseRecord

	// NumPhases is the number of timed phases.
	NumPhases = int(PhaseRecord) + 1
)

// phaseNames are the JSON/report keys, aligned with the constants.
var phaseNames = [NumPhases]string{
	"events", "fault", "issue", "collect", "banks",
	"adaptive", "telemetry", "energy", "record",
}

// String returns the phase's report key.
func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return fmt.Sprintf("phase_%d", int(p))
	}
	return phaseNames[p]
}

// Census counts SM cycles and, of them, the skippable ones: cycles in
// which nothing issued, fired, was served or dispatched, while a
// scheduled event was pending.
type Census struct {
	SMCycles  uint64 `json:"sm_cycles"`
	Skippable uint64 `json:"skippable"`
}

// Add folds another census into c.
func (c *Census) Add(o Census) {
	c.SMCycles += o.SMCycles
	c.Skippable += o.Skippable
}

// check validates that the skippable cycles are a share of SMCycles.
func (c Census) check() error {
	if c.Skippable > c.SMCycles {
		return fmt.Errorf("perfscope: %d skippable cycles exceed sm_cycles %d",
			c.Skippable, c.SMCycles)
	}
	return nil
}

// SkippableFrac is the fraction of SM cycles that were skippable.
func (c Census) SkippableFrac() float64 {
	if c.SMCycles == 0 {
		return 0
	}
	return float64(c.Skippable) / float64(c.SMCycles)
}

// epoch anchors the monotonic clock used by Now.
var epoch = time.Now()

// Now returns monotonic nanoseconds since process start; it never
// allocates, so the enabled wall-clock path stays allocation-free.
func Now() int64 { return int64(time.Since(epoch)) }

// Profiler aggregates censuses and phase timings folded in by the
// simulator at kernel boundaries. One profiler typically covers one
// workload x design run; Fold is mutex-guarded so SMs of concurrent
// kernels sharing a profiler stay safe.
type Profiler struct {
	wall bool

	mu      sync.Mutex
	census  Census
	phaseNS [NumPhases]int64
}

// New returns an empty profiler. With wallClock set, the simulator also
// times every tick phase (non-deterministic, excluded from reproducible
// reports); the census is always collected.
func New(wallClock bool) *Profiler {
	return &Profiler{wall: wallClock}
}

// WallClock reports whether phase timing is enabled.
func (p *Profiler) WallClock() bool { return p.wall }

// Fold adds one SM-run's census and phase nanoseconds.
func (p *Profiler) Fold(c Census, ns [NumPhases]int64) {
	p.mu.Lock()
	p.census.Add(c)
	for i, v := range ns {
		p.phaseNS[i] += v
	}
	p.mu.Unlock()
}

// Census returns the folded census.
func (p *Profiler) Census() Census {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.census
}

// PhaseNS returns the folded per-phase wall-clock nanoseconds (all zero
// unless the profiler was built with wallClock).
func (p *Profiler) PhaseNS() [NumPhases]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.phaseNS
}

// Schema is the versioned report format tag.
const Schema = "pilotrf-perfscope/v2"

// Wall is the optional (non-reproducible) wall-clock section of an
// entry: total timed nanoseconds and the per-phase split. Map keys are
// phase names; encoding/json sorts them, so even this section renders
// deterministically for fixed values.
type Wall struct {
	TotalNS int64            `json:"total_ns"`
	PhaseNS map[string]int64 `json:"phase_ns"`
}

// Entry is one workload x design row of a report.
type Entry struct {
	Workload      string  `json:"workload"`
	Design        string  `json:"design"`
	Census        Census  `json:"census"`
	SkippableFrac float64 `json:"skippable_frac"`
	Wall          *Wall   `json:"wall,omitempty"`
}

// NewEntry renders a profiler into a report entry, computing the
// skippable fraction and attaching the wall-clock section only when the
// profiler timed phases.
func NewEntry(workload, design string, p *Profiler) Entry {
	c := p.Census()
	e := Entry{
		Workload:      workload,
		Design:        design,
		Census:        c,
		SkippableFrac: c.SkippableFrac(),
	}
	if p.wall {
		ns := p.PhaseNS()
		w := &Wall{PhaseNS: make(map[string]int64, NumPhases)}
		for i, v := range ns {
			w.PhaseNS[Phase(i).String()] = v
			w.TotalNS += v
		}
		e.Wall = w
	}
	return e
}

// Report is one entry per workload x design in canonical (workload,
// then design) order, plus the folded total.
type Report struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
	Total   Entry   `json:"total"`
}

// NewReport sorts the entries canonically and computes the total row,
// so equal entry sets always produce byte-identical reports.
func NewReport(entries []Entry) *Report {
	es := append([]Entry(nil), entries...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].Workload != es[j].Workload {
			return es[i].Workload < es[j].Workload
		}
		return es[i].Design < es[j].Design
	})
	var total Census
	for _, e := range es {
		total.Add(e.Census)
	}
	return &Report{
		Schema:  Schema,
		Entries: es,
		Total: Entry{
			Workload:      "total",
			Design:        "all",
			Census:        total,
			SkippableFrac: total.SkippableFrac(),
		},
	}
}

// WriteJSON emits the report as indented JSON with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Read parses and validates a pilotrf-perfscope/v2 report: the schema
// tag must match, every census must be valid, and the total's census
// must equal the sum of the entries' without overflow, so an accepted
// report rewrites through NewReport to one Read accepts again. It never
// panics on malformed input.
func Read(rd io.Reader) (*Report, error) {
	dec := json.NewDecoder(rd)
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("perfscope: parsing report: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perfscope: schema %q, want %q", r.Schema, Schema)
	}
	var sum Census
	for i, e := range r.Entries {
		if e.Workload == "" || e.Design == "" {
			return nil, fmt.Errorf("perfscope: entry %d missing workload or design", i)
		}
		if err := e.Census.check(); err != nil {
			return nil, fmt.Errorf("entry %d (%s/%s): %w", i, e.Workload, e.Design, err)
		}
		var c1, c2 uint64
		sum.SMCycles, c1 = bits.Add64(sum.SMCycles, e.Census.SMCycles, 0)
		sum.Skippable, c2 = bits.Add64(sum.Skippable, e.Census.Skippable, 0)
		if c1|c2 != 0 {
			return nil, fmt.Errorf("perfscope: entry %d (%s/%s): census sum overflows uint64", i, e.Workload, e.Design)
		}
	}
	if r.Total.Census != sum {
		return nil, fmt.Errorf("perfscope: total census %+v, entries sum to %+v", r.Total.Census, sum)
	}
	return &r, nil
}

// ReadFile reads a report from disk.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
