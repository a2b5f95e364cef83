package regfile

import (
	"fmt"

	"pilotrf/internal/isa"
)

// Partition identifies the physical structure (and power mode) that
// services a register access; the energy model prices each differently.
type Partition uint8

// Partitions.
const (
	PartMRF Partition = iota
	PartFRFHigh
	PartFRFLow
	PartSRF
)

// String returns the partition name.
func (p Partition) String() string {
	switch p {
	case PartMRF:
		return "MRF"
	case PartFRFHigh:
		return "FRF_high"
	case PartFRFLow:
		return "FRF_low"
	case PartSRF:
		return "SRF"
	default:
		return fmt.Sprintf("PART_%d", uint8(p))
	}
}

// Design selects the register file organization under evaluation.
type Design uint8

// Register file designs.
const (
	// DesignMonolithicSTV is the performance baseline: one 256 KB MRF
	// at super-threshold voltage, 1-cycle access.
	DesignMonolithicSTV Design = iota
	// DesignMonolithicNTV is the power-aggressive baseline: the MRF at
	// near-threshold voltage, 3-cycle access.
	DesignMonolithicNTV
	// DesignPartitioned is the paper's FRF+SRF split without the
	// adaptive FRF mode (FRF always high-power).
	DesignPartitioned
	// DesignPartitionedAdaptive adds the back-gate controlled FRF
	// low-power mode driven by the epoch phase detector.
	DesignPartitionedAdaptive
)

// Partitioned reports whether the design splits the RF into FRF and SRF.
func (d Design) Partitioned() bool {
	return d == DesignPartitioned || d == DesignPartitionedAdaptive
}

// String returns the design name.
func (d Design) String() string {
	switch d {
	case DesignMonolithicSTV:
		return "MRF@STV"
	case DesignMonolithicNTV:
		return "MRF@NTV"
	case DesignPartitioned:
		return "Partitioned"
	case DesignPartitionedAdaptive:
		return "Partitioned+AdaptiveFRF"
	default:
		return fmt.Sprintf("DESIGN_%d", uint8(d))
	}
}

// Latencies holds per-partition access latencies in cycles. The defaults
// come from the FinCACTI access-time analysis (fincacti.AccessCycles).
type Latencies struct {
	MRF     int // monolithic at its operating voltage
	FRFHigh int
	FRFLow  int
	SRF     int
}

// Config describes a register file instance for one SM.
type Config struct {
	Design Design
	// FRFRegs is the number of registers per thread held in the FRF
	// (n = 4 in the paper: 4 x 64 warps x 128 B = 32 KB).
	FRFRegs int
	// Banks is the number of RF banks (24 in the Kepler config).
	Banks int
	Lat   Latencies
	// Adaptive configures the FRF power-mode controller; only used by
	// DesignPartitionedAdaptive.
	Adaptive AdaptiveConfig
}

// DefaultConfig returns the paper's preferred configuration for a design.
func DefaultConfig(d Design) Config {
	lat := Latencies{MRF: 1, FRFHigh: 1, FRFLow: 2, SRF: 3}
	if d == DesignMonolithicNTV {
		lat.MRF = 3
	}
	return Config{
		Design:   d,
		FRFRegs:  4,
		Banks:    24,
		Lat:      lat,
		Adaptive: DefaultAdaptiveConfig(),
	}
}

// File is one SM's register file: routing, swapping table, and the
// adaptive mode controller. It is purely a control model — simulated
// threads keep their values in the simulator; File decides which physical
// partition each access touches and how long it takes.
type File struct {
	cfg      Config
	mapper   Mapper
	adaptive *AdaptiveFRF
}

// New returns a register file in the given configuration, using the
// CAM-based swapping table.
func New(cfg Config) (*File, error) {
	if cfg.Banks <= 0 {
		return nil, fmt.Errorf("regfile: bank count must be positive, got %d", cfg.Banks)
	}
	if cfg.FRFRegs <= 0 && cfg.Design.Partitioned() {
		return nil, fmt.Errorf("regfile: partitioned design needs a positive FRF size, got %d registers", cfg.FRFRegs)
	}
	table, err := NewSwapTable(maxInt(cfg.FRFRegs, 1))
	if err != nil {
		return nil, err
	}
	f := &File{cfg: cfg, mapper: table}
	if cfg.Design == DesignPartitionedAdaptive {
		f.adaptive, err = NewAdaptiveFRF(cfg.Adaptive)
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Mapper exposes the swapping table for profiling-driven reconfiguration.
func (f *File) Mapper() Mapper { return f.mapper }

// CAM returns the CAM swapping table when the file routes through one
// (the construction New always does), or nil. Fault injection targets
// the CAM's raw entries through this accessor.
func (f *File) CAM() *SwapTable {
	t, _ := f.mapper.(*SwapTable)
	return t
}

// CAMBits returns the swapping-table storage exposed to soft errors, in
// bits: the CAM's capacity for partitioned designs, zero for monolithic
// designs (which never consult the table).
func (f *File) CAMBits() int {
	if !f.cfg.Design.Partitioned() {
		return 0
	}
	if t := f.CAM(); t != nil {
		return t.Bits()
	}
	return 0
}

// Adaptive returns the FRF mode controller, or nil for non-adaptive
// designs.
func (f *File) Adaptive() *AdaptiveFRF { return f.adaptive }

// Route returns the partition servicing an access to physical register
// phys (PhysicalReg's result) and the access latency in cycles. In a
// partitioned design physical registers below FRFRegs live in the FRF,
// the rest in the SRF, and an FRF access takes the adaptive power mode
// current at the call. The access never touches both partitions.
func (f *File) Route(phys isa.Reg) (Partition, int) {
	if !f.cfg.Design.Partitioned() {
		return PartMRF, f.cfg.Lat.MRF
	}
	if int(phys) < f.cfg.FRFRegs {
		if f.adaptive != nil && f.adaptive.LowPower() {
			return PartFRFLow, f.cfg.Lat.FRFLow
		}
		return PartFRFHigh, f.cfg.Lat.FRFHigh
	}
	return PartSRF, f.cfg.Lat.SRF
}

// PhysicalReg returns the physical location of architected register r
// (identity for monolithic designs).
func (f *File) PhysicalReg(r isa.Reg) isa.Reg {
	if !f.cfg.Design.Partitioned() {
		return r
	}
	return f.mapper.Lookup(r)
}

// BankOf returns the bank servicing physical register phys of warp w.
// Registers are striped across banks with the warp id as an offset so
// consecutive registers of a warp, and the same register of consecutive
// warps, land in different banks — the standard GPU RF layout.
func (f *File) BankOf(warp int, phys isa.Reg) int {
	return (warp + int(phys)) % f.cfg.Banks
}
