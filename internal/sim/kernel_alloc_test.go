package sim

import (
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
)

// ldgLoopKernel builds a kernel whose threads each run trips iterations
// of a global load feeding an FFMA, closed by the loop's SETP and BRA.
// The CTA and warp counts do not depend on trips.
func ldgLoopKernel(trips int32) *kernel.Kernel {
	b := kernel.NewBuilder("ldg-loop", 6)
	b.S2R(isa.R(0), isa.SRTid)
	b.SHLI(isa.R(1), isa.R(0), 2)
	b.MOVI(isa.R(3), 0)
	b.CountedLoop(isa.R(4), isa.P(0), trips, func() {
		b.LDG(isa.R(2), isa.R(1), 0)
		b.FFMA(isa.R(3), isa.R(2), isa.R(2), isa.R(3))
	})
	b.STG(isa.R(1), 0, isa.R(3))
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 64, NumCTAs: 4}
}

// detailTracer reads every event's detail, as an exporter would.
type detailTracer struct{ bytes int }

// Event implements Tracer.
func (t *detailTracer) Event(e TraceEvent) { t.bytes += len(e.Detail) }

// countingSink is a flightrec.Sink that only counts events.
type countingSink struct{ events int }

// Record implements flightrec.Sink.
func (s *countingSink) Record(flightrec.Event) { s.events++ }

// ChecksumEvery implements flightrec.Sink.
func (s *countingSink) ChecksumEvery() int64 { return flightrec.DefaultChecksumEvery }

// TestWholeKernelAllocsIndependentOfLength asserts that, with every
// observer detached, the SM core allocates nothing per executed
// instruction: on every registered scheme, quadrupling a loop's trip
// count with the same CTAs and warps may add a few allocations (a slice
// reaching a new peak length) but never a number that grows with the
// extra instructions. The per-hook zero-allocation tests cannot see an
// allocation made by a hook's caller; this one measures whole kernels.
//
// A tracer that reads every detail and a flight-recorder sink, both
// attached, are held to the same slack: each distinct issue and
// bank-access detail is rendered once per kernel run, however many
// events carry it.
func TestWholeKernelAllocsIndependentOfLength(t *testing.T) {
	const (
		trips = 32
		slack = 8 // allocations the longer run may add, whatever trips is
	)
	short, long := ldgLoopKernel(trips), ldgLoopKernel(4*trips)
	for _, sch := range design.All() {
		cfg, err := testConfig().WithScheme(sch, sch.DefaultKnobs())
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(cfg Config, k *kernel.Kernel) (float64, uint64) {
			var instrs uint64
			a := testing.AllocsPerRun(3, func() {
				instrs = mustRun(t, cfg, k).WarpInstrs
			})
			return a, instrs
		}
		aShort, nShort := allocs(cfg, short)
		aLong, nLong := allocs(cfg, long)
		if aLong-aShort > slack {
			t.Errorf("%s: %d more warp-instructions cost %.0f more allocations (%.0f -> %.0f), want at most %d",
				sch.Name(), nLong-nShort, aLong-aShort, aShort, aLong, slack)
		}

		observed := cfg
		observed.Tracer = &detailTracer{}
		observed.Record = &countingSink{}
		oShort, _ := allocs(observed, short)
		oLong, _ := allocs(observed, long)
		if oLong-oShort > slack {
			t.Errorf("%s observed: %d more warp-instructions cost %.0f more allocations (%.0f -> %.0f), want at most %d",
				sch.Name(), nLong-nShort, oLong-oShort, oShort, oLong, slack)
		}
	}
}
