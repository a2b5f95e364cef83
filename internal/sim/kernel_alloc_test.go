package sim

import (
	"reflect"
	"slices"
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

// TestWholeKernelAllocsIndependentOfCTAs asserts that, with every
// observer detached, CTA waves allocate nothing: on every registered
// scheme, running four times as many CTAs through one SM (each wave
// launched into the slots the last one vacated) may add the same few
// allocations as a longer loop, never a number that grows with the
// extra CTAs. A slot keeps its warp's storage for the next warp
// launched into it, and an exited CTA's record serves the next CTA.
//
// An attached tracer stays out of this test: it renders each CTA
// launch's and each warp retire's detail string.
func TestWholeKernelAllocsIndependentOfCTAs(t *testing.T) {
	const (
		ctas  = 16
		slack = 8 // as in TestWholeKernelAllocsIndependentOfLength
	)
	few, many := ldgLoopKernel(4), ldgLoopKernel(4)
	few.ThreadsPerCTA, many.ThreadsPerCTA = 256, 256
	few.NumCTAs, many.NumCTAs = ctas, 4*ctas
	for _, sch := range design.All() {
		cfg, err := testConfig().WithScheme(sch, sch.DefaultKnobs())
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(k *kernel.Kernel) float64 {
			return testing.AllocsPerRun(3, func() { mustRun(t, cfg, k) })
		}
		aFew, aMany := allocs(few), allocs(many)
		if aMany-aFew > slack {
			t.Errorf("%s: %d more CTAs cost %.0f more allocations (%.0f -> %.0f), want at most %d",
				sch.Name(), many.NumCTAs-few.NumCTAs, aMany-aFew, aFew, aMany, slack)
		}
	}
}

// TestRelaunchedSlotStartsClean: a CTA launched into the slots an
// exited CTA vacated reuses their warp storage and the exited CTA's
// record, and each of its warps starts as a fresh one would, whatever
// the last warp left behind: zero rows, a one-entry SIMT stack, no
// pending bits, execSeq 0 and every other field zero.
func TestRelaunchedSlotStartsClean(t *testing.T) {
	cfg := testConfig()
	cfg.Record = &countingSink{} // the read digest advances execSeq
	k := ldgLoopKernel(2)
	k.ThreadsPerCTA, k.NumCTAs = 48, 1 // the second warp has 16 lanes
	s := loadSM(t, &cfg, k)
	wp := k.WarpsPerCTA()
	old, oldCTA := slices.Clone(s.warps[:wp]), s.warps[0].cta
	for s.busy() {
		s.tick()
	}
	for slot, w := range old {
		if !w.vacant() || w.execSeq == 0 {
			t.Fatalf("slot %d: vacant %v, execSeq %d after the CTA exited; want a vacant slot whose warp executed",
				slot, w.vacant(), w.execSeq)
		}
		for r := range w.regs {
			w.regs[r][r%32] = ^uint32(0)
		}
		w.stack = append(w.stack, simtEntry{pc: 5, rpc: 9, mask: 3}, simtEntry{pc: 7, rpc: 9, mask: 1})
		w.preds[1] = 6
		w.pendingRegs, w.pendingPreds, w.execSeq = 1<<3, 1<<2, 40
		w.blockedUntil, w.atBarrier, w.done, w.inFlight, w.memInFlight = 99, true, true, 2, 1
		w.finishCycle, w.lastIssue = 50, 60
	}
	k.NumCTAs = 2
	s.launchCTA(1)
	for slot, w := range s.warps[:wp] {
		if w != old[slot] || w.cta != oldCTA {
			t.Fatalf("slot %d: the relaunched warp got new storage or a new CTA record", slot)
		}
		threads := fullMask
		if slot == 1 {
			threads = 1<<16 - 1
		}
		want := warpCtx{slot: slot, globalID: wp + slot, cta: oldCTA, inCTA: slot, regs: w.regs,
			stack: []simtEntry{{pc: 0, rpc: -1, mask: threads}}}
		if !reflect.DeepEqual(*w, want) {
			t.Errorf("slot %d: relaunched warp %+v, want %+v", slot, *w, want)
		}
		for r, row := range w.regs {
			if row != ([32]uint32{}) {
				t.Errorf("slot %d: R%d not cleared: %v", slot, r, row)
			}
		}
	}
	if oldCTA.id != 1 || oldCTA.live != wp || oldCTA.arrived != 0 || len(oldCTA.warps) != wp {
		t.Errorf("relaunched CTA record %+v, want id 1 with %d live warps", *oldCTA, wp)
	}
}
