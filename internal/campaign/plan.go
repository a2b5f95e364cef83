package campaign

import (
	"pilotrf/internal/jobs"
	"pilotrf/internal/trace"
)

// Plan is a compiled spec's campaign grid: an indexed list of cells in
// canonical report order (design-major, then workload, then protection
// scheme), each with its content-addressed cache key and a
// self-contained single-cell Spec a remote worker can execute in
// isolation. Run executes a plan on one pool; the fleet coordinator
// (internal/fleet) shards the same plan across workers. Both reuse a
// cached cell only when ValidCell accepts it, and both build the report
// with Assemble.
//
// The load-bearing property, pinned by TestCellSpecMatchesFullRun, is
// that running CellSpec(i) anywhere — any machine, any worker count —
// produces a one-cell report whose cell is byte-identical to cell i of
// a full Run of the original spec: trial seeds derive only from the
// campaign seed and trial index, golden digests only from (design,
// workload, scale, sms), and CellKey(i) equals the key the full run
// caches that cell under. An N-worker fleet that assembles remotely
// computed cells with Assemble therefore reproduces the standalone
// report bit-for-bit, and a restarted coordinator can replay finished
// cells straight out of the cache.
type Plan struct {
	p     *plan
	cells []CellRef
}

// CellRef names one campaign cell in canonical order.
type CellRef struct {
	// Index is the cell's position in the canonical report order.
	Index int `json:"index"`
	// Design, Workload, and Protect are the cell's registry names.
	Design   string `json:"design"`
	Workload string `json:"workload"`
	Protect  string `json:"protect"`

	di, wi, si int // the compiled design, workload and protection
}

// NewPlan compiles and validates the spec into its campaign grid.
func NewPlan(spec Spec) (*Plan, error) {
	p, err := compile(spec)
	if err != nil {
		return nil, err
	}
	pl := &Plan{p: p, cells: make([]CellRef, 0, len(p.configs)*len(p.wls)*len(p.schemes))}
	for di, dname := range p.spec.Designs {
		for wi := range p.wls {
			for si, sname := range p.spec.Protect {
				pl.cells = append(pl.cells, CellRef{
					Index:    len(pl.cells),
					Design:   dname,
					Workload: p.wls[wi].Name,
					Protect:  sname,
					di:       di,
					wi:       wi,
					si:       si,
				})
			}
		}
	}
	return pl, nil
}

// Spec returns the spec with campaign defaults applied and every name
// canonical — the fully resolved form whose zero fields no longer mean
// "pick a default".
func (pl *Plan) Spec() Spec { return pl.p.spec }

// NumCells returns the grid size.
func (pl *Plan) NumCells() int { return len(pl.cells) }

// NumJobs returns the spec's admission price (golden runs + trials),
// matching Spec.NumJobs.
func (pl *Plan) NumJobs() int { return pl.p.numJobs() }

// Cells returns the cells in canonical report order.
func (pl *Plan) Cells() []CellRef { return pl.cells }

// Cell returns the i-th cell.
func (pl *Plan) Cell(i int) CellRef { return pl.cells[i] }

// CellKey returns cell i's content-addressed cache key — identical to
// the key a full Run of the spec stores the finished cell under, which
// is what makes coordinator crash-resume a cache replay.
func (pl *Plan) CellKey(i int) jobs.Key { return pl.p.cellKey(pl.cells[i]) }

// CellSpec returns the self-contained single-cell spec for cell i: a
// full Run of it produces exactly one cell, byte-identical to cell i of
// the original spec's run, and caches it under CellKey(i).
func (pl *Plan) CellSpec(i int) Spec {
	ref := pl.cells[i]
	s := pl.p.spec
	return Spec{
		Benchmarks: []string{ref.Workload},
		Designs:    []string{ref.Design},
		Protect:    []string{ref.Protect},
		Trials:     s.Trials,
		Rate:       s.Rate,
		Seed:       s.Seed,
		Scale:      s.Scale,
		SMs:        s.SMs,
	}
}

// ValidCell reports whether c is a plausible result for cell i: the
// identity fields match the ref and the outcome counts sum to the
// spec's trial count. Run's cache reads and the coordinator's resume
// and result-ingest paths all run this, so a stale or tampered cache
// entry or a confused worker degrades to recomputation instead of
// corrupting the report.
func (pl *Plan) ValidCell(i int, c Cell) bool {
	ref := pl.cells[i]
	o := c.Outcomes
	return c.Design == ref.Design && c.Workload == ref.Workload && c.Protection == ref.Protect &&
		o.Masked+o.Corrected+o.DetectedUnrecoverable+o.SDC == pl.p.spec.Trials
}

// Assemble builds the campaign report from cells in canonical order
// (len(cells) must equal NumCells). Run builds its report with it too,
// so a fleet's report marshals to a local Run's bytes for the same spec.
func (pl *Plan) Assemble(cells []Cell) Report {
	s := pl.p.spec
	return Report{
		Schema: Schema, Rate: s.Rate, Seed: s.Seed, Trials: s.Trials,
		Scale: s.Scale, SMs: s.SMs, Cells: cells,
	}
}

// TraceID returns the deterministic trace id a standalone Run of this
// spec roots its span tree with — the fleet coordinator uses it so
// a sharded campaign's tree shares identity with the local run's.
func (pl *Plan) TraceID() string {
	return trace.TraceID("pilotrf-campaign", pl.p.specKey().Preimage())
}
