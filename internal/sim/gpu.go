package sim

import (
	"errors"
	"fmt"

	"pilotrf/internal/fault"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
	"pilotrf/internal/stats"
)

// runState is the shared state of one kernel execution across SMs.
type runState struct {
	cfg   *Config
	kern  *kernel.Kernel
	stats *KernelStats

	warpCounter int
	nextCTA     int

	// telKernel is the recorder-scoped kernel sequence number stamped
	// into sampled time-series rows (0 when metrics are disabled).
	telKernel int64
	// enKernel is the ledger-scoped kernel sequence number stamped into
	// energy charges (0 when the ledger is disabled).
	enKernel int64

	// issueDetails and bankDetails hold every tracer detail rendered in
	// this run, so each distinct one is allocated once. They live here,
	// not on the kernel.Program that concurrent runs share: one run's
	// SMs tick on one goroutine.
	issueDetails map[uint64]string
	bankDetails  map[uint64]string

	// fatal, when set by a fault adjudication (retry exhaustion on an
	// uncorrectable error), aborts the kernel at the next cycle boundary.
	// The run still drains its observers — epochs flush, the ledger
	// closes, the recorder gets its final checksum — so the partial run
	// remains analyzable; only then does RunKernel surface the error.
	fatal error
}

func (r *runState) nextWarpID() int {
	id := r.warpCounter
	r.warpCounter++
	return id
}

// registerWarpHist enables per-warp access collection for a warp.
func (r *runState) registerWarpHist(globalID, numRegs int) {
	if r.stats.PerWarpHist == nil {
		r.stats.PerWarpHist = make(map[int]*stats.Histogram)
	}
	r.stats.PerWarpHist[globalID] = stats.NewHistogram(numRegs)
}

// countRegAccess records one warp-level operand access.
func (r *runState) countRegAccess(globalID int, reg isa.Reg) {
	r.stats.RegHist.Inc(int(reg))
	if h, ok := r.stats.PerWarpHist[globalID]; ok {
		h.Inc(int(reg))
	}
}

// ctaDone is called when an SM retires a CTA; the SM immediately pulls
// the next CTA from the grid if any remain.
func (r *runState) ctaDone(s *sm) {
	if r.nextCTA < r.kern.NumCTAs && s.freeWarpSlots() >= r.kern.WarpsPerCTA() && s.residentCTAs < s.ctaCapacity() {
		s.launchCTA(r.nextCTA)
		r.nextCTA++
	}
}

// GPU is the simulated chip.
type GPU struct {
	cfg Config
}

// New validates the configuration and returns a GPU. When both an energy
// ledger and a protection scheme are configured, the ledger is primed
// with the scheme's per-partition check-bit pricing so the protection
// overhead appears in the energy report and its conservation check.
func New(cfg Config) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Energy != nil {
		cfg.Energy.SetProtection(cfg.Protect.Mask(), fault.OverheadTable(cfg.RF.Design, cfg.Protect))
	}
	return &GPU{cfg: cfg}, nil
}

// Config returns the GPU configuration.
func (g *GPU) Config() Config { return g.cfg }

// RunKernel executes one kernel to completion and returns its statistics.
// SM state (pipelines, profiling hardware, swapping tables) is fresh per
// kernel, matching the paper's per-kernel profiling lifecycle.
func (g *GPU) RunKernel(k *kernel.Kernel) (KernelStats, error) {
	if err := k.Validate(); err != nil {
		return KernelStats{}, err
	}
	ks := KernelStats{
		Name:    k.Prog.Name,
		RegHist: stats.NewHistogram(k.Prog.NumRegs),
	}
	run := &runState{cfg: &g.cfg, kern: k, stats: &ks}
	if g.cfg.Metrics != nil {
		run.telKernel = g.cfg.Metrics.BeginKernel()
	}
	if g.cfg.Energy != nil {
		run.enKernel = g.cfg.Energy.BeginKernel()
	}
	if g.cfg.Record != nil {
		g.cfg.Record.Record(flightrec.Event{
			Cycle: 0, SM: -1, Kind: flightrec.KindKernelBegin, Warp: -1, PC: -1,
			A: uint64(k.NumCTAs), Detail: k.Prog.Name,
		})
	}

	sms := make([]*sm, g.cfg.NumSMs)
	for i := range sms {
		var err error
		sms[i], err = newSM(i, &g.cfg, run)
		if err != nil {
			return ks, err
		}
		if sms[i].ctaCapacity() < 1 {
			return ks, fmt.Errorf("sim: kernel %s does not fit on an SM (regs %d x warps %d)",
				k.Prog.Name, k.Prog.NumRegs, k.WarpsPerCTA())
		}
	}

	// Initial CTA fill, round-robin across SMs (breadth-first, as the
	// hardware CTA scheduler does).
	for filled := true; filled && run.nextCTA < k.NumCTAs; {
		filled = false
		for _, s := range sms {
			if run.nextCTA >= k.NumCTAs {
				break
			}
			if s.residentCTAs < s.ctaCapacity() && s.freeWarpSlots() >= k.WarpsPerCTA() {
				s.launchCTA(run.nextCTA)
				run.nextCTA++
				filled = true
			}
		}
	}

	var cycle int64
	for {
		busy := false
		for _, s := range sms {
			if s.busy() {
				busy = true
				s.tick()
			}
		}
		if !busy || run.fatal != nil {
			break
		}
		cycle++
		if cycle > g.cfg.MaxCycles {
			// Break instead of returning so the drain below still runs:
			// the aborted kernel keeps its cycle count, fault counters,
			// and final checksums — fault campaigns classify watchdog
			// aborts and need those.
			run.fatal = fmt.Errorf("sim: kernel %s exceeded %d cycles (deadlock?): %w",
				k.Prog.Name, g.cfg.MaxCycles, ErrCycleLimit)
			break
		}
	}

	ks.Cycles = cycle
	ks.IssueSlots = uint64(cycle) * uint64(g.cfg.MaxIssuePerCycle()) * uint64(g.cfg.NumSMs)

	// Flush the partial epoch each SM was in when the kernel drained so
	// the time series and the energy ledger cover every observed cycle,
	// and fold each SM's per-register access matrix into the heatmap.
	for _, s := range sms {
		if s.tel != nil {
			s.sampleEpoch()
		}
		if s.en != nil {
			s.flushEnergyEpoch()
			s.foldHeat()
			s.en.led.AddOverhead(s.en.overhead)
		}
		if s.inj != nil {
			ks.Fault.Add(*s.inj.Stats())
		}
		if s.rec != nil {
			// Final architectural-state checksum per SM, so even short
			// kernels carry at least one checksum to compare.
			s.recordChecksum()
		}
		if s.pf != nil {
			s.foldPerf()
		}
	}
	if g.cfg.Energy != nil {
		g.cfg.Energy.EndKernel(cycle)
	}
	if g.cfg.Record != nil {
		g.cfg.Record.Record(flightrec.Event{
			Cycle: cycle, SM: -1, Kind: flightrec.KindKernelEnd, Warp: -1, PC: -1,
			A: ks.WarpInstrs, Detail: k.Prog.Name,
		})
	}

	// Pilot fraction and adaptive statistics, averaged over SMs.
	var pilotFracs, lowFracs []float64
	for _, s := range sms {
		if s.ranPilot && cycle > 0 {
			pilotFracs = append(pilotFracs, float64(s.pilotFinish)/float64(cycle))
		}
		if a := s.rf.Adaptive(); a != nil {
			lowFracs = append(lowFracs, a.LowEpochFraction())
		}
		if s.rfcCache != nil {
			ks.RFC.Add(s.rfcCache.Stats())
		}
		if s.gate != nil {
			ks.Gating.Add(s.gate.Stats())
		}
	}
	ks.PilotFraction = stats.Mean(pilotFracs)
	ks.LowEpochFraction = stats.Mean(lowFracs)
	return ks, run.fatal
}

// ErrCycleLimit marks a kernel aborted by the MaxCycles watchdog; match
// it with errors.Is. Beyond genuine scheduler deadlocks, an injected
// fault that corrupts a loop counter or branch input can spin a kernel
// forever — the watchdog abort is how that runaway manifests, so fault
// campaigns treat it as corrupted execution rather than a harness
// failure.
var ErrCycleLimit = errors.New("cycle limit exceeded")

// RunKernels executes a sequence of kernels (a workload) back to back.
func (g *GPU) RunKernels(name string, kernels []kernel.Kernel) (RunStats, error) {
	rs := RunStats{Workload: name}
	for i := range kernels {
		ks, err := g.RunKernel(&kernels[i])
		// The aborted kernel's stats still carry its drained counters
		// (fault outcomes included), so keep them alongside the error.
		rs.Kernels = append(rs.Kernels, ks)
		if err != nil {
			return rs, fmt.Errorf("kernel %d: %w", i, err)
		}
	}
	return rs, nil
}
