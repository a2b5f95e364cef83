package design

import (
	"fmt"

	"pilotrf/internal/energy"
	"pilotrf/internal/regfile"
)

// init registers the schemes in canonical report order: the paper's four
// designs first, then the related-work rivals.
func init() {
	Register(monolithic{name: "mrf-stv", base: regfile.DesignMonolithicSTV,
		doc: "monolithic 256 KB MRF at standard voltage (the baseline)"})
	Register(monolithic{name: "mrf-ntv", base: regfile.DesignMonolithicNTV,
		doc: "monolithic MRF at near-threshold voltage (slow, leaky-cheap)"})
	Register(partitioned{name: "part", base: regfile.DesignPartitioned,
		doc: "pilot-profiled FRF/SRF partitioning (the paper's design)"})
	Register(partitioned{name: "part-adaptive", base: regfile.DesignPartitionedAdaptive,
		doc: "partitioned RF with the adaptive dual-voltage FRF"})
	Register(greener{})
	Register(rfcScheme{name: "rfc", doc: "Gebhart ISCA'11 register file cache (FIFO, allocate-on-miss)"})
	Register(rfcScheme{name: "rfc-hints", hints: true,
		doc: "compiler-assisted RFC: static top-N hints pick cached registers"})
}

// monolithic is a legacy single-partition design; the name fixes the
// voltage, so it has no knobs.
type monolithic struct {
	name string
	base regfile.Design
	doc  string
}

// Name implements Scheme.
func (m monolithic) Name() string { return m.name }

// Doc implements Scheme.
func (m monolithic) Doc() string { return m.doc }

// DefaultKnobs implements Scheme.
func (m monolithic) DefaultKnobs() Knobs { return Knobs{} }

// Validate implements Scheme: the monolithic designs have no knobs.
func (m monolithic) Validate(k Knobs) error {
	if k != (Knobs{}) {
		return fmt.Errorf("design: %s takes no knobs (got %s)", m.name, k)
	}
	return nil
}

// Grid implements Scheme.
func (m monolithic) Grid() []Knobs { return []Knobs{{}} }

// Settings implements Scheme: the design's default register file.
func (m monolithic) Settings(k Knobs) (Settings, error) {
	if err := m.Validate(k); err != nil {
		return Settings{}, err
	}
	return Settings{RF: regfile.DefaultConfig(m.base)}, nil
}

// Energy implements Scheme with the aggregate pricing model.
func (m monolithic) Energy(k Knobs, r Run) energy.Report {
	return energy.ForRun(m.base, r.PartAccesses, r.Cycles)
}

// partitioned is a legacy FRF/SRF design; Size is the FRF capacity in
// registers per warp (the paper's n, default 4).
type partitioned struct {
	name string
	base regfile.Design
	doc  string
}

// Name implements Scheme.
func (p partitioned) Name() string { return p.name }

// Doc implements Scheme.
func (p partitioned) Doc() string { return p.doc }

// DefaultKnobs implements Scheme.
func (p partitioned) DefaultKnobs() Knobs { return Knobs{} }

// Validate implements Scheme: Size is the FRF registers per warp; the
// partition structure fixes the voltage regions, so Voltage must stay
// default.
func (p partitioned) Validate(k Knobs) error {
	if k.Voltage != "" {
		return fmt.Errorf("design: %s fixes its voltage regions (got vdd=%s)", p.name, k.Voltage)
	}
	if k.Size < 0 || k.Size > 16 {
		return fmt.Errorf("design: %s FRF size %d outside [1,16] (0 = the paper's 4)", p.name, k.Size)
	}
	return nil
}

// Grid implements Scheme: the paper's n = 4 plus the ablation neighbors.
func (p partitioned) Grid() []Knobs {
	return []Knobs{{}, {Size: 2}, {Size: 6}}
}

// Settings implements Scheme. Profiling promotes FRFRegs registers, so
// a non-default FRF size moves the profiling top-N with it.
func (p partitioned) Settings(k Knobs) (Settings, error) {
	if err := p.Validate(k); err != nil {
		return Settings{}, err
	}
	set := Settings{RF: regfile.DefaultConfig(p.base)}
	if k.Size != 0 {
		set.RF.FRFRegs = k.Size
	}
	return set, nil
}

// Energy implements Scheme with the aggregate pricing model.
func (p partitioned) Energy(k Knobs, r Run) energy.Report {
	return energy.ForRun(p.base, r.PartAccesses, r.Cycles)
}
