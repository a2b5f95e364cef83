package fault

import (
	"fmt"
	"math"

	"pilotrf/internal/regfile"
	"pilotrf/internal/stats"
)

// Target is the physical array a fault strikes.
type Target uint8

// Fault targets.
const (
	// TargetMRF strikes the monolithic 256 KB main register file.
	TargetMRF Target = iota
	// TargetFRF strikes the 32 KB fast register file.
	TargetFRF
	// TargetSRF strikes the 224 KB slow (near-threshold) register file.
	TargetSRF
	// TargetCAM strikes the swapping-table CAM.
	TargetCAM

	// NumTargets is the number of fault targets.
	NumTargets = 4
)

// String returns the target name.
func (t Target) String() string {
	switch t {
	case TargetMRF:
		return "MRF"
	case TargetFRF:
		return "FRF"
	case TargetSRF:
		return "SRF"
	case TargetCAM:
		return "CAM"
	default:
		return fmt.Sprintf("TARGET_%d", uint8(t))
	}
}

// Partition maps a cell-array target to its regfile partition (for the
// FRF the low-power flag at strike time decides which mode). TargetCAM
// has no partition; callers never route CAM strikes through storage.
func (t Target) Partition(lowPower bool) regfile.Partition {
	switch t {
	case TargetMRF:
		return regfile.PartMRF
	case TargetFRF:
		if lowPower {
			return regfile.PartFRFLow
		}
		return regfile.PartFRFHigh
	default:
		return regfile.PartSRF
	}
}

// Storage bit counts per array, matching the paper's capacities
// (DESIGN.md: MRF 256 KB, FRF 32 KB, SRF 224 KB). The raw fault rate of
// an array scales with the number of bits exposed to upsets.
const (
	mrfBits = 256 * 1024 * 8
	frfBits = 32 * 1024 * 8
	srfBits = 224 * 1024 * 8
)

// Config parameterizes the fault-injection engine. The zero value is
// "injection disabled"; a positive Rate enables it. All randomness
// derives from Seed, so equal configs reproduce equal campaigns.
type Config struct {
	// Rate is the raw soft-error rate of an STV array, in upsets per bit
	// per cycle. Real SER is ~1e-19 at this granularity; campaigns use
	// accelerated rates (1e-9..1e-7) to observe outcomes in short runs.
	Rate float64
	// Seed drives the injection RNG. Zero is remapped to a fixed
	// constant (the stats.RNG convention).
	Seed uint64
	// StuckAtFrac is the fraction of injected cell faults that are
	// stuck-at (split evenly between stuck-at-0 and stuck-at-1) rather
	// than transient. Zero selects the default 0.05; a negative value
	// means exactly zero (campaigns isolating one fault kind need it).
	StuckAtFrac float64
	// ReadPathFrac is the fraction of injected cell faults that strike
	// the read path (sense amp/bitline) instead of a storage cell, so a
	// re-issued read observes clean data. Zero selects the default 0.15;
	// a negative value means exactly zero.
	ReadPathFrac float64
}

// Defaults for zero-valued Config fields.
const (
	DefaultStuckAtFrac  = 0.05
	DefaultReadPathFrac = 0.15
)

// Fixed fault-model parameters.
const (
	// NTVFactor multiplies the raw rate of near-threshold arrays (the
	// SRF, and the MRF in the monolithic-NTV design): Qcrit collapse at
	// 0.3 V makes NTV SRAM far more upset-prone than STV.
	NTVFactor = 25.0
	// LowPowerFactor multiplies the FRF rate while the adaptive design
	// holds the FRF in its back-gated low-power mode.
	LowPowerFactor = 4.0
	// MaxRetries bounds warp-level re-issue attempts per detected
	// uncorrectable fault before the kernel aborts.
	MaxRetries = 3
	// RetryPenalty is the stall, in cycles, charged to a warp per
	// re-issue (parity detection + scoreboard replay).
	RetryPenalty = 8
)

// WithDefaults returns the config with zero-valued tuning fields
// replaced by their defaults. Rate and Seed are never defaulted.
func (c Config) WithDefaults() Config {
	switch {
	case c.StuckAtFrac == 0:
		c.StuckAtFrac = DefaultStuckAtFrac
	case c.StuckAtFrac < 0:
		c.StuckAtFrac = 0
	}
	switch {
	case c.ReadPathFrac == 0:
		c.ReadPathFrac = DefaultReadPathFrac
	case c.ReadPathFrac < 0:
		c.ReadPathFrac = 0
	}
	return c
}

// Validate rejects configs the engine cannot honor. It validates the
// post-default view, so a sparse literal with only Rate and Seed set is
// valid.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Rate < 0 || math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("fault: rate must be a finite non-negative upsets/bit/cycle, got %v", c.Rate)
	}
	if c.StuckAtFrac < 0 || c.ReadPathFrac < 0 || c.StuckAtFrac+c.ReadPathFrac > 1 {
		return fmt.Errorf("fault: kind fractions must satisfy 0 <= stuck-at (%v) + read-path (%v) <= 1", c.StuckAtFrac, c.ReadPathFrac)
	}
	return nil
}

// Shot is one accepted fault strike: which array, what kind, and where
// within a 32-bit word. The simulator picks the victim cell (warp,
// register) or CAM entry, since occupancy is its knowledge.
type Shot struct {
	Target Target
	Kind   Kind
	Lane   int
	Bit    int
}

// Injector is the per-SM fault process. It draws fault inter-arrival
// times from the aggregate rate of every array the design exposes, then
// attributes each strike to one array proportionally to its momentary
// rate. The FRF's rate depends on the adaptive power mode, which changes
// mid-run; the injector handles that with Poisson thinning — arrivals
// are drawn at the maximum aggregate rate, and each is accepted with
// probability (current rate / maximum rate). Thinned and accepted
// arrivals consume identical RNG draws, so the arrival process is
// deterministic given the seed regardless of mode-flip timing.
type Injector struct {
	cfg Config
	// arr drives arrivals and thinning only; det drives shot details and
	// victim selection. Splitting the streams keeps arrival timing
	// independent of how many detail draws each strike consumes — the
	// candidate-arrival cycles are identical across mode-flip histories
	// and protection schemes, which is what makes campaign cells with
	// the same seed comparable strike-for-strike.
	arr  *stats.RNG
	det  *stats.RNG
	st   Stats
	down int64 // cycles until the next candidate arrival

	// Per-target rates in upsets/cycle: low[t] with the FRF at high
	// power, high[t] with the FRF back-gated. Only the FRF entry
	// differs. lambdaMax is the aggregate of the high view — the
	// thinning envelope.
	low, high [NumTargets]float64
	lambdaMax float64
}

// NewInjector builds the fault process for one SM of the given design.
// camBits sizes the swap-table CAM target (0 for monolithic designs,
// which have no CAM). The SM index salts the seed so SMs fault
// independently yet reproducibly.
func NewInjector(cfg Config, d regfile.Design, smID int, camBits int) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	base := cfg.Seed + uint64(smID)*0x9E3779B97F4A7C15
	in := &Injector{
		cfg: cfg,
		arr: stats.NewRNG(base),
		det: stats.NewRNG(base ^ 0xD1B54A32D192ED03),
	}
	if d.Partitioned() {
		in.low[TargetFRF] = cfg.Rate * frfBits
		in.low[TargetSRF] = cfg.Rate * srfBits * NTVFactor
		in.low[TargetCAM] = cfg.Rate * float64(camBits)
	} else {
		in.low[TargetMRF] = cfg.Rate * mrfBits
		if d == regfile.DesignMonolithicNTV {
			in.low[TargetMRF] *= NTVFactor
		}
	}
	in.high = in.low
	if d == regfile.DesignPartitionedAdaptive {
		in.high[TargetFRF] = in.low[TargetFRF] * LowPowerFactor
	}
	for _, l := range in.high {
		in.lambdaMax += l
	}
	if in.lambdaMax > 0 {
		in.rearm()
	}
	return in, nil
}

// rearm draws the next inter-arrival gap at the envelope rate lambdaMax:
// exponential with mean 1/lambdaMax, floored at 1 cycle.
func (in *Injector) rearm() {
	u := in.arr.Float64()
	for u == 0 {
		u = in.arr.Float64()
	}
	gap := int64(-math.Log(u) / in.lambdaMax)
	if gap < 1 {
		gap = 1
	}
	in.down = gap
}

// Tick advances the fault process one cycle and reports whether a fault
// strikes this cycle. lowPower is the FRF's power mode this cycle; it
// scales the FRF's momentary rate. The no-strike path is branch-cheap
// and allocation-free.
func (in *Injector) Tick(lowPower bool) (Shot, bool) {
	if in.lambdaMax == 0 {
		return Shot{}, false
	}
	in.down--
	if in.down > 0 {
		return Shot{}, false
	}
	in.st.Fires++
	in.rearm()
	rates := &in.low
	if lowPower {
		rates = &in.high
	}
	var lambdaNow float64
	for _, l := range rates {
		lambdaNow += l
	}
	// Poisson thinning: accept the arrival with probability
	// lambdaNow/lambdaMax. The draw happens unconditionally — thinned
	// and accepted arrivals consume identical arrival-stream state, so
	// the candidate process replays bit-identically across mode-flip
	// histories (Float64 < 1 strictly, so lambdaNow == lambdaMax never
	// thins).
	if in.arr.Float64()*in.lambdaMax >= lambdaNow {
		in.st.Thinned++
		return Shot{}, false
	}
	// Attribute the strike to one array proportionally to momentary rate.
	pick := in.det.Float64() * lambdaNow
	target := TargetMRF
	for t, l := range rates {
		if pick < l || t == NumTargets-1 {
			target = Target(t)
			break
		}
		pick -= l
	}
	if rates[target] == 0 {
		// Degenerate pick into a zero-rate tail entry (possible only
		// through float round-off); fold it into the thinned count.
		in.st.Thinned++
		return Shot{}, false
	}
	shot := Shot{Target: target}
	if target == TargetCAM {
		shot.Bit = in.det.Intn(regfile.EntryBits)
		return shot, true
	}
	// Kind split: read-path, stuck-at (even 0/1), else transient.
	k := in.det.Float64()
	switch {
	case k < in.cfg.ReadPathFrac:
		shot.Kind = KindReadPath
	case k < in.cfg.ReadPathFrac+in.cfg.StuckAtFrac:
		shot.Kind = KindStuckAt0
		if in.det.Uint64()&1 == 1 {
			shot.Kind = KindStuckAt1
		}
	default:
		shot.Kind = KindTransient
	}
	shot.Lane = in.det.Intn(32)
	shot.Bit = in.det.Intn(32)
	return shot, true
}

// Intn exposes the detail RNG for victim selection (which warp slot,
// which register, which CAM entry): the simulator knows occupancy, the
// injector owns determinism. Victim draws share the detail stream, so
// they never perturb arrival timing.
func (in *Injector) Intn(n int) int { return in.det.Intn(n) }

// Stats returns the injector's mutable outcome counters. The simulator
// increments protection/recovery outcomes directly as it adjudicates
// each fault.
func (in *Injector) Stats() *Stats { return &in.st }
