package energy

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"pilotrf/internal/isa"
	"pilotrf/internal/regfile"
)

// EpochCharge attributes the RF accesses of one SM over one epoch to the
// four physical partitions. Charges are kept as integer access counts —
// not picojoules — so that summing epochs and pricing the total through
// DynamicPJ reproduces the aggregate energy figure bit-exactly (float
// summation order can never diverge, because no floats are summed until
// the single final conversion).
type EpochCharge struct {
	// Kernel is the ledger-scoped kernel sequence number (from
	// Ledger.BeginKernel), distinguishing back-to-back kernels whose
	// cycle counters restart at zero.
	Kernel int64
	// SM is the charging SM's id.
	SM int
	// Cycle is the last cycle of the epoch (kernel-local clock).
	Cycle int64
	// Cycles is the number of cycles the epoch covered (the final epoch
	// of a kernel may be partial).
	Cycles int64
	// Accesses counts bank transactions serviced per partition, indexed
	// by regfile.Partition.
	Accesses [4]uint64
}

// HeatCell attributes the RF accesses of one (SM, warp slot,
// architectural register) bucket over a kernel to the four physical
// partitions — one cell of the access/energy heatmap.
type HeatCell struct {
	// Kernel is the ledger-scoped kernel sequence number.
	Kernel int64
	// SM is the charging SM's id.
	SM int
	// Warp is the SM-local warp slot.
	Warp int
	// Reg is the architectural register.
	Reg isa.Reg
	// Accesses counts bank transactions per partition, indexed by
	// regfile.Partition.
	Accesses [4]uint64
}

// Total returns the cell's summed access count across partitions.
func (c HeatCell) Total() uint64 {
	var n uint64
	for _, v := range c.Accesses {
		n += v
	}
	return n
}

// EnergyPJ prices the cell against a per-access table (PerAccessTable).
func (c HeatCell) EnergyPJ(tab [4]float64) float64 {
	var pj float64
	for p, n := range c.Accesses {
		pj += float64(n) * tab[p]
	}
	return pj
}

// Ledger is a streaming energy-attribution sink: simulation code charges
// every serviced RF access to a (component, epoch, warp, architectural
// register) bucket as it happens, and the ledger prices the accumulated
// integer counts through the exact same formulas the aggregate energy
// report uses (DynamicPJ, LeakagePJ). The conservation invariant — the
// ledger's totals equal the end-of-run aggregate figures bit-exactly —
// therefore holds by construction and is property-tested across every
// workload and design.
//
// One ledger is shared by every SM of a run and across the kernels of a
// workload; epoch and heat appends are serialized internally and happen
// only at epoch/kernel boundaries, never on the per-access hot path.
type Ledger struct {
	mu           sync.Mutex
	design       regfile.Design
	epochCycles  int
	perAccess    [4]float64
	leakMW       float64
	kernelSeq    int64
	kernelCycles []int64
	epochs       []EpochCharge
	heat         []HeatCell

	// Protection overhead accounting (SetProtection): protected marks
	// partitions carrying an error-detection code, overheadPerAccess its
	// per-access check-bit energy, and overhead the integer count of
	// accesses that paid it. Counts stay integers until the single final
	// pricing, matching the conservation discipline of the main buckets.
	protected         [4]bool
	overheadPerAccess [4]float64
	overhead          [4]uint64
}

// EpochSchema tags the per-epoch energy CSV (WriteEpochCSV).
const EpochSchema = "pilotrf-energy-epochs/v1"

// HeatmapSchema tags the heatmap CSV (WriteHeatmapCSV).
const HeatmapSchema = "pilotrf-energy-heatmap/v1"

// NewLedger returns a ledger for a design, folding charges every
// epochCycles cycles (0 selects the adaptive FRF's default epoch so
// energy epochs line up with the power-mode decisions they explain).
func NewLedger(d regfile.Design, epochCycles int) *Ledger {
	if epochCycles <= 0 {
		epochCycles = regfile.DefaultAdaptiveConfig().EpochCycles
	}
	return &Ledger{
		design:      d,
		epochCycles: epochCycles,
		perAccess:   PerAccessTable(d),
		leakMW:      LeakageMW(d),
	}
}

// Design returns the design the ledger prices against.
func (l *Ledger) Design() regfile.Design { return l.design }

// EpochCycles returns the folding period in cycles.
func (l *Ledger) EpochCycles() int { return l.epochCycles }

// PerAccessPJ returns the per-access pricing table, indexed by
// regfile.Partition.
func (l *Ledger) PerAccessPJ() [4]float64 { return l.perAccess }

// LeakageMW returns the design's total RF leakage power.
func (l *Ledger) LeakageMW() float64 { return l.leakMW }

// SetProtection declares which partitions carry an error-protection
// code and what each protected access costs on top of its data access
// (fault.OverheadTable supplies the pricing). Subsequent AddOverhead
// charges accumulate against this table, and CheckConservation demands
// one overhead charge per access on every protected partition.
func (l *Ledger) SetProtection(protected [4]bool, overheadPerAccess [4]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.protected = protected
	l.overheadPerAccess = overheadPerAccess
}

// ProtectedMask returns which partitions carry protection.
func (l *Ledger) ProtectedMask() [4]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.protected
}

// AddOverhead charges protection-overhead accesses per partition (one
// per protected access; an SM folds these in at kernel drain).
func (l *Ledger) AddOverhead(counts [4]uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for p, n := range counts {
		l.overhead[p] += n
	}
}

// OverheadTotals returns the accumulated overhead access counts.
func (l *Ledger) OverheadTotals() [4]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.overhead
}

// OverheadPJ prices the protection overhead: check-bit read/write energy
// summed in partition order, the same single-final-conversion discipline
// as DynamicPJ.
func (l *Ledger) OverheadPJ() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var pj float64
	for p, n := range l.overhead {
		pj += float64(n) * l.overheadPerAccess[p]
	}
	return pj
}

// BeginKernel advances and returns the kernel sequence number stamped
// into subsequent charges.
func (l *Ledger) BeginKernel() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.kernelSeq++
	return l.kernelSeq
}

// EndKernel records a finished kernel's cycle count, the integration
// interval of its leakage charge.
func (l *Ledger) EndKernel(cycles int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.kernelCycles = append(l.kernelCycles, cycles)
}

// AddEpoch appends one SM-epoch charge.
func (l *Ledger) AddEpoch(e EpochCharge) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.epochs = append(l.epochs, e)
}

// AddHeat appends a batch of per-register heat cells (one SM's kernel
// fold).
func (l *Ledger) AddHeat(cells []HeatCell) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.heat = append(l.heat, cells...)
}

// Epochs returns a copy of the accumulated epoch charges.
func (l *Ledger) Epochs() []EpochCharge {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]EpochCharge(nil), l.epochs...)
}

// HeatCells returns a copy of the accumulated heatmap cells.
func (l *Ledger) HeatCells() []HeatCell {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]HeatCell(nil), l.heat...)
}

// Kernels returns how many kernels have begun on the ledger.
func (l *Ledger) Kernels() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.kernelSeq
}

// AccessTotals sums the epoch charges into per-partition access counts —
// the integer quantity DynamicPJ prices.
func (l *Ledger) AccessTotals() [4]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accessTotalsLocked()
}

func (l *Ledger) accessTotalsLocked() [4]uint64 {
	var parts [4]uint64
	for i := range l.epochs {
		for p, n := range l.epochs[i].Accesses {
			parts[p] += n
		}
	}
	return parts
}

// HeatTotals sums the heatmap cells into per-partition access counts;
// conservation requires it to equal AccessTotals.
func (l *Ledger) HeatTotals() [4]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var parts [4]uint64
	for i := range l.heat {
		for p, n := range l.heat[i].Accesses {
			parts[p] += n
		}
	}
	return parts
}

// TotalCycles sums the recorded kernel cycle counts — the run duration
// LeakagePJ integrates over.
func (l *Ledger) TotalCycles() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalCyclesLocked()
}

func (l *Ledger) totalCyclesLocked() int64 {
	var c int64
	for _, n := range l.kernelCycles {
		c += n
	}
	return c
}

// DynamicPJ prices the ledger's access totals — bit-exactly equal to
// the aggregate DynamicPJ of the same run.
func (l *Ledger) DynamicPJ() float64 {
	return DynamicPJ(l.design, l.AccessTotals())
}

// DynamicByPartitionPJ returns the dynamic energy charged to each
// partition. The components sum to DynamicPJ when added in partition
// order (the order DynamicPJ itself uses).
func (l *Ledger) DynamicByPartitionPJ() [4]float64 {
	parts := l.AccessTotals()
	var pj [4]float64
	for p, n := range parts {
		pj[p] = float64(n) * l.perAccess[p]
	}
	return pj
}

// LeakagePJ integrates the design's leakage over the recorded kernel
// cycles — bit-exactly equal to the aggregate LeakagePJ of the same run.
func (l *Ledger) LeakagePJ() float64 {
	return LeakagePJ(l.design, l.TotalCycles())
}

// TotalPJ returns dynamic plus leakage energy.
func (l *Ledger) TotalPJ() float64 { return l.DynamicPJ() + l.LeakagePJ() }

// Report renders the ledger as the aggregate Report shape.
func (l *Ledger) Report() Report {
	return ForRun(l.design, l.AccessTotals(), l.TotalCycles())
}

// CheckConservation verifies the ledger against a run's aggregate
// figures: the epoch charges and the heatmap must both sum to the run's
// partition-access counts, the recorded kernel cycles must sum to the
// run's total cycles, and the priced dynamic/leakage energies must equal
// the aggregate formulas bit-exactly. It returns nil when every
// invariant holds.
func (l *Ledger) CheckConservation(parts [4]uint64, cycles int64) error {
	if got := l.AccessTotals(); got != parts {
		return fmt.Errorf("energy: ledger epoch accesses %v != run accesses %v", got, parts)
	}
	if got := l.HeatTotals(); got != parts {
		return fmt.Errorf("energy: ledger heatmap accesses %v != run accesses %v", got, parts)
	}
	if got := l.TotalCycles(); got != cycles {
		return fmt.Errorf("energy: ledger cycles %d != run cycles %d", got, cycles)
	}
	if got, want := l.DynamicPJ(), DynamicPJ(l.design, parts); got != want {
		return fmt.Errorf("energy: ledger dynamic %v pJ != aggregate %v pJ", got, want)
	}
	if got, want := l.LeakagePJ(), LeakagePJ(l.design, cycles); got != want {
		return fmt.Errorf("energy: ledger leakage %v pJ != aggregate %v pJ", got, want)
	}
	// Protection conservation: every access to a protected partition pays
	// exactly one overhead charge; unprotected partitions pay none.
	overhead := l.OverheadTotals()
	protected := l.ProtectedMask()
	for p := range overhead {
		want := uint64(0)
		if protected[p] {
			want = parts[p]
		}
		if overhead[p] != want {
			return fmt.Errorf("energy: %s protection overhead %d charges != %d accesses (protected=%v)",
				regfile.Partition(p), overhead[p], want, protected[p])
		}
	}
	return nil
}

// epochCSVColumns is the WriteEpochCSV header.
var epochCSVColumns = []string{
	"kernel", "sm", "cycle", "cycles",
	"mrf", "frf_high", "frf_low", "srf",
	"e_mrf_pj", "e_frf_high_pj", "e_frf_low_pj", "e_srf_pj",
	"e_dyn_pj", "e_leak_pj",
}

// WriteEpochCSV dumps the epoch charges as CSV: a "# schema:" comment,
// a header, then one line per SM-epoch with raw access counts, their
// priced per-partition energies, the epoch's dynamic total, and the
// SM's leakage share over the epoch.
func (l *Ledger) WriteEpochCSV(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := []byte("# schema: " + EpochSchema + "\n")
	for i, c := range epochCSVColumns {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, c...)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for i := range l.epochs {
		e := &l.epochs[i]
		buf = buf[:0]
		buf = strconv.AppendInt(buf, e.Kernel, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.SM), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, e.Cycle, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, e.Cycles, 10)
		var dyn float64
		for p, n := range e.Accesses {
			buf = append(buf, ',')
			buf = strconv.AppendUint(buf, n, 10)
			dyn += float64(n) * l.perAccess[p]
		}
		for p, n := range e.Accesses {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, float64(n)*l.perAccess[p], 'g', -1, 64)
		}
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, dyn, 'g', -1, 64)
		buf = append(buf, ',')
		leak := l.leakMW * float64(e.Cycles) / ClockGHz
		buf = strconv.AppendFloat(buf, leak, 'g', -1, 64)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// heatmapCSVColumns is the WriteHeatmapCSV header.
var heatmapCSVColumns = []string{
	"kernel", "sm", "warp", "reg",
	"mrf", "frf_high", "frf_low", "srf",
	"accesses", "energy_pj", "share",
}

// WriteHeatmapCSV dumps the per-register heatmap as CSV: a "# schema:"
// comment, a header, then one line per (kernel, SM, warp, register)
// cell with per-partition access counts, the cell's priced energy, and
// its share of the run's total dynamic energy.
func (l *Ledger) WriteHeatmapCSV(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := DynamicPJ(l.design, l.accessTotalsLocked())
	buf := []byte("# schema: " + HeatmapSchema + "\n")
	for i, c := range heatmapCSVColumns {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, c...)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for i := range l.heat {
		c := &l.heat[i]
		buf = buf[:0]
		buf = strconv.AppendInt(buf, c.Kernel, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(c.SM), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(c.Warp), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(c.Reg), 10)
		for _, n := range c.Accesses {
			buf = append(buf, ',')
			buf = strconv.AppendUint(buf, n, 10)
		}
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, c.Total(), 10)
		pj := c.EnergyPJ(l.perAccess)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, pj, 'g', -1, 64)
		buf = append(buf, ',')
		share := 0.0
		if total > 0 {
			share = pj / total
		}
		buf = strconv.AppendFloat(buf, share, 'g', -1, 64)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// heatmapJSON is the wire shape of WriteHeatmapJSON.
type heatmapJSON struct {
	Schema         string             `json:"schema"`
	Design         string             `json:"design"`
	PerAccessPJ    map[string]float64 `json:"per_access_pj"`
	TotalDynamicPJ float64            `json:"total_dynamic_pj"`
	Cells          []heatmapCellJSON  `json:"cells"`
}

// heatmapCellJSON is one JSON heatmap cell.
type heatmapCellJSON struct {
	Kernel   int64             `json:"kernel"`
	SM       int               `json:"sm"`
	Warp     int               `json:"warp"`
	Reg      int               `json:"reg"`
	Accesses map[string]uint64 `json:"accesses"`
	Total    uint64            `json:"total"`
	EnergyPJ float64           `json:"energy_pj"`
}

// WriteHeatmapJSON dumps the heatmap as a single JSON document carrying
// the pricing table alongside the cells, so downstream tooling can
// re-price without consulting the simulator.
func (l *Ledger) WriteHeatmapJSON(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	doc := heatmapJSON{
		Schema:         "pilotrf-energy-heatmap-json/v1",
		Design:         l.design.String(),
		PerAccessPJ:    make(map[string]float64, 4),
		TotalDynamicPJ: DynamicPJ(l.design, l.accessTotalsLocked()),
		Cells:          make([]heatmapCellJSON, 0, len(l.heat)),
	}
	for p, e := range l.perAccess {
		doc.PerAccessPJ[regfile.Partition(p).String()] = e
	}
	for i := range l.heat {
		c := &l.heat[i]
		cell := heatmapCellJSON{
			Kernel: c.Kernel, SM: c.SM, Warp: c.Warp, Reg: int(c.Reg),
			Accesses: make(map[string]uint64, 4),
			Total:    c.Total(), EnergyPJ: c.EnergyPJ(l.perAccess),
		}
		for p, n := range c.Accesses {
			cell.Accesses[regfile.Partition(p).String()] = n
		}
		doc.Cells = append(doc.Cells, cell)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
