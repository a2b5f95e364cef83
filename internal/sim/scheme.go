package sim

import (
	"pilotrf/internal/design"
)

// WithScheme returns the config reconfigured for a registered design
// scheme at the given knobs; it is the only way a design name becomes a
// simulator configuration. The pre-refactor goldens assert the paper's
// four designs simulate exactly as they did before schemes existed.
func (c Config) WithScheme(s design.Scheme, k design.Knobs) (Config, error) {
	set, err := s.Settings(k)
	if err != nil {
		return c, err
	}
	c.RF = set.RF
	if set.TwoLevel {
		c.Policy = PolicyTL
		if set.TLActiveWarps > 0 {
			c.TLActiveWarps = set.TLActiveWarps
		}
	}
	return c, nil
}

// DesignRun summarizes the run for Scheme.Energy pricing: the neutral
// integer-count view internal/design consumes.
func (r RunStats) DesignRun() design.Run {
	return design.Run{
		PartAccesses:  r.PartAccesses(),
		Cycles:        r.TotalCycles(),
		TotalAccesses: r.TotalAccesses(),
		RFC:           r.RFCTotals(),
		Gating:        r.GatingTotals(),
	}
}
