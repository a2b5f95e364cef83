package design

import (
	"fmt"

	"pilotrf/internal/energy"
	"pilotrf/internal/fincacti"
	"pilotrf/internal/finfet"
	"pilotrf/internal/regfile"
	"pilotrf/internal/rfc"
)

// RFC array shape for the default 4-scheduler SM: the paper's Figure 13
// scaling point (24 banks, 32-warp active pool, 2R/1W ports).
const (
	rfcActiveWarps = 32
	rfcBanks       = 24
	rfcDefEntries  = 6
)

// rfcScheme is the Gebhart ISCA'11 register file cache in front of a
// monolithic MRF, optionally compiler-assisted (arXiv 2310.17501): with
// hints, the compiler's static top-N registers are the only ones that
// allocate entries — everything else bypasses straight to the MRF, so no
// CAM probe is spent on registers known never to be cached. Size is the
// entries per warp; Voltage picks the backing MRF supply (NTV is the
// paper's fair-comparison default).
type rfcScheme struct {
	name  string
	doc   string
	hints bool
}

// Name implements Scheme.
func (s rfcScheme) Name() string { return s.name }

// Doc implements Scheme.
func (s rfcScheme) Doc() string { return s.doc }

// DefaultKnobs implements Scheme.
func (s rfcScheme) DefaultKnobs() Knobs { return Knobs{} }

// Validate implements Scheme.
func (s rfcScheme) Validate(k Knobs) error {
	if _, err := voltageOf(k.Voltage, "ntv"); err != nil {
		return err
	}
	if k.Size < 0 || k.Size > 16 {
		return fmt.Errorf("design: %s entries per warp %d outside [1,16] (0 = %d)",
			s.name, k.Size, rfcDefEntries)
	}
	return nil
}

// Grid implements Scheme: the paper's 6 entries plus neighbors, at the
// fair-comparison NTV backing.
func (s rfcScheme) Grid() []Knobs {
	return []Knobs{{}, {Size: 4}, {Size: 8}}
}

// entries resolves the entries-per-warp knob.
func (s rfcScheme) entries(k Knobs) int {
	if k.Size == 0 {
		return rfcDefEntries
	}
	return k.Size
}

// Settings implements Scheme: a monolithic MRF fronted by the cache
// under the two-level scheduler (the active-pool restriction is part of
// the RFC's cost), with the MRF latency set by its voltage.
func (s rfcScheme) Settings(k Knobs) (Settings, error) {
	if err := s.Validate(k); err != nil {
		return Settings{}, err
	}
	d, _ := voltageOf(k.Voltage, "ntv") // Validate accepted the voltage
	return Settings{
		RF:            regfile.DefaultConfig(d),
		TwoLevel:      true,
		TLActiveWarps: rfcActiveWarps,
		RFC: rfc.Config{
			EntriesPerWarp:     s.entries(k),
			Warps:              rfcActiveWarps,
			Policy:             rfc.FIFO,
			AllocateOnReadMiss: true,
		},
		RFCCompilerHints: s.hints,
	}, nil
}

// array returns the FinCACTI model of the cache storage at these knobs.
func (s rfcScheme) array(k Knobs) fincacti.RFConfig {
	return fincacti.RFCConfig(s.entries(k), rfcActiveWarps, rfcBanks, 2, 1)
}

// Energy implements Scheme: tag/data/MRF dynamic pricing from the cache
// event counts, plus the leakage of the MRF and the cache array itself.
func (s rfcScheme) Energy(k Knobs, r Run) energy.Report {
	d, _ := voltageOf(k.Voltage, "ntv") // a run's knobs passed Settings
	vdd := finfet.STV
	if d == regfile.DesignMonolithicNTV {
		vdd = finfet.NTV
	}
	arr := s.array(k)
	dyn := energy.RFCDynamic(r.RFC, arr, vdd)
	nanos := float64(r.Cycles) / energy.ClockGHz
	return averageLeakage(energy.Report{
		Design:    d,
		Cycles:    r.Cycles,
		DynamicPJ: dyn.TotalPJ(),
		LeakagePJ: energy.LeakagePJ(d, r.Cycles) + arr.LeakagePowerMW()*nanos,
	})
}
