package sim

import (
	"pilotrf/internal/design"
	"pilotrf/internal/fault"
	"pilotrf/internal/regfile"
	"pilotrf/internal/rfc"
	"pilotrf/internal/stats"
	"pilotrf/internal/telemetry"
)

// KernelStats is the measurement record of one kernel execution.
type KernelStats struct {
	Name   string
	Cycles int64

	// WarpInstrs counts issued warp instructions; ThreadInstrs weights
	// them by active lanes.
	WarpInstrs   uint64
	ThreadInstrs uint64

	// RegReads/RegWrites count warp-level register file operand
	// accesses (the unit the energy model prices).
	RegReads  uint64
	RegWrites uint64

	// PartAccesses splits accesses by the physical partition that
	// serviced them (indexed by regfile.Partition).
	PartAccesses [4]uint64

	// RegHist is the per-architected-register access histogram across
	// the whole kernel (Figure 2 and the profiling oracle).
	RegHist *stats.Histogram

	// PerWarpHist holds per-warp register histograms for the first
	// Config.CollectPerWarpCTAs CTAs (Section II access-similarity
	// analysis), keyed by global warp id.
	PerWarpHist map[int]*stats.Histogram

	// PilotFraction is the pilot warp's completion time over the
	// kernel's execution time, averaged over SMs that ran a pilot
	// (Table I's last column).
	PilotFraction float64

	// LowEpochFraction is the fraction of epochs the adaptive FRF spent
	// in low-power mode, averaged over SMs.
	LowEpochFraction float64

	// RFC holds the register-file-cache event counts when the config
	// has an RFC.
	RFC rfc.Stats

	// Gating holds the liveness-gating row-cycle counters when
	// Config.Gating is set.
	Gating design.GatingStats

	// IssueSlots is cycles x peak issue width; utilization is
	// WarpInstrs / IssueSlots.
	IssueSlots uint64

	// CollectorStalls counts issue probes that failed only because no
	// operand collector unit was free (a structural hazard signal).
	CollectorStalls uint64

	// BankQueueSum accumulates the total bank queue length each cycle;
	// divide by cycles x banks for the average per-bank backlog.
	BankQueueSum uint64

	// SMCycles counts observed SM-cycles (each tick of each busy SM)
	// when telemetry is enabled (Config.Stalls or Config.Metrics); zero
	// otherwise. SMs retire at different times, so this is not simply
	// Cycles x NumSMs.
	SMCycles uint64

	// BusyCycles counts SM-cycles that issued at least one instruction;
	// SMCycles - BusyCycles is the total stall-cycle count the
	// StallBreakdown attributes.
	BusyCycles uint64

	// StallBreakdown charges every zero-issue SM-cycle to exactly one
	// cause; its Total always equals StallCycles(). Populated only when
	// telemetry is enabled.
	StallBreakdown telemetry.StallBreakdown

	// Fault aggregates the injection and protection outcome counters
	// across SMs. All-zero when injection is disabled.
	Fault fault.Stats
}

// StallCycles returns the number of SM-cycles that issued nothing — the
// quantity StallBreakdown attributes cause by cause.
func (k *KernelStats) StallCycles() uint64 { return k.SMCycles - k.BusyCycles }

// SIMTEfficiency returns active lanes per issued warp instruction over
// the warp width — 1.0 for divergence-free code.
func (k *KernelStats) SIMTEfficiency() float64 {
	if k.WarpInstrs == 0 {
		return 0
	}
	return float64(k.ThreadInstrs) / float64(k.WarpInstrs*32)
}

// AvgBankQueue returns the average per-bank backlog in requests.
func (k *KernelStats) AvgBankQueue(banks int) float64 {
	if k.Cycles == 0 || banks <= 0 {
		return 0
	}
	return float64(k.BankQueueSum) / float64(k.Cycles) / float64(banks)
}

// TotalAccesses returns all warp-level register file accesses.
func (k *KernelStats) TotalAccesses() uint64 { return k.RegReads + k.RegWrites }

// FRFShare returns the fraction of accesses serviced by the FRF (either
// power mode) — the quantity Figure 4 and Figure 10 report.
func (k *KernelStats) FRFShare() float64 {
	total := k.PartAccesses[regfile.PartMRF] + k.PartAccesses[regfile.PartFRFHigh] +
		k.PartAccesses[regfile.PartFRFLow] + k.PartAccesses[regfile.PartSRF]
	if total == 0 {
		return 0
	}
	frf := k.PartAccesses[regfile.PartFRFHigh] + k.PartAccesses[regfile.PartFRFLow]
	return float64(frf) / float64(total)
}

// FRFLowShareOfFRF returns the fraction of FRF accesses that occurred in
// low-power mode (Figure 10's ~22% average).
func (k *KernelStats) FRFLowShareOfFRF() float64 {
	frf := k.PartAccesses[regfile.PartFRFHigh] + k.PartAccesses[regfile.PartFRFLow]
	if frf == 0 {
		return 0
	}
	return float64(k.PartAccesses[regfile.PartFRFLow]) / float64(frf)
}

// IssueUtilization returns issued instructions over peak issue slots.
func (k *KernelStats) IssueUtilization() float64 {
	if k.IssueSlots == 0 {
		return 0
	}
	return float64(k.WarpInstrs) / float64(k.IssueSlots)
}

// RunStats aggregates the kernels of one workload execution.
type RunStats struct {
	Workload string
	Kernels  []KernelStats
}

// TotalCycles sums kernel execution times (kernels run back-to-back).
func (r RunStats) TotalCycles() int64 {
	var t int64
	for i := range r.Kernels {
		t += r.Kernels[i].Cycles
	}
	return t
}

// TotalAccesses sums register accesses across kernels.
func (r RunStats) TotalAccesses() uint64 {
	var t uint64
	for i := range r.Kernels {
		t += r.Kernels[i].TotalAccesses()
	}
	return t
}

// PartAccesses sums partition-routed accesses across kernels.
func (r RunStats) PartAccesses() [4]uint64 {
	var out [4]uint64
	for i := range r.Kernels {
		for p, v := range r.Kernels[i].PartAccesses {
			out[p] += v
		}
	}
	return out
}

// FRFShare returns the access-weighted FRF share across kernels.
func (r RunStats) FRFShare() float64 {
	parts := r.PartAccesses()
	total := parts[0] + parts[1] + parts[2] + parts[3]
	if total == 0 {
		return 0
	}
	return float64(parts[regfile.PartFRFHigh]+parts[regfile.PartFRFLow]) / float64(total)
}

// MergedRegHist returns the per-register access histogram summed over
// kernels. Register numbering is per-kernel, so this is meaningful for
// Figure 2's "top N of each kernel" only via TopNShareByKernel; the
// merged histogram serves single-kernel workloads and debugging.
func (r RunStats) MergedRegHist() *stats.Histogram {
	h := stats.NewHistogram(64)
	for i := range r.Kernels {
		if r.Kernels[i].RegHist == nil {
			continue
		}
		for reg, c := range r.Kernels[i].RegHist.Snapshot() {
			h.Add(reg, c)
		}
	}
	return h
}

// TopNShareByKernel returns the access-weighted fraction of accesses
// going to each kernel's own top-n registers — exactly Figure 2's metric.
func (r RunStats) TopNShareByKernel(n int) float64 {
	var top, total uint64
	for i := range r.Kernels {
		h := r.Kernels[i].RegHist
		if h == nil {
			continue
		}
		total += h.Total()
		for _, kv := range h.TopN(n) {
			top += kv.Count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// StallTotals sums stall attributions across kernels, returning the
// per-cause breakdown alongside the busy and total SM-cycle counts.
func (r RunStats) StallTotals() (bd telemetry.StallBreakdown, busy, smCycles uint64) {
	for i := range r.Kernels {
		bd.AddBreakdown(r.Kernels[i].StallBreakdown)
		busy += r.Kernels[i].BusyCycles
		smCycles += r.Kernels[i].SMCycles
	}
	return bd, busy, smCycles
}

// FaultTotals sums the fault-injection outcome counters across kernels.
func (r RunStats) FaultTotals() fault.Stats {
	var t fault.Stats
	for i := range r.Kernels {
		t.Add(r.Kernels[i].Fault)
	}
	return t
}

// RFCTotals sums RFC statistics across kernels.
func (r RunStats) RFCTotals() rfc.Stats {
	var t rfc.Stats
	for i := range r.Kernels {
		t.Add(r.Kernels[i].RFC)
	}
	return t
}

// GatingTotals sums the liveness-gating counters across kernels.
func (r RunStats) GatingTotals() design.GatingStats {
	var t design.GatingStats
	for i := range r.Kernels {
		t.Add(r.Kernels[i].Gating)
	}
	return t
}
