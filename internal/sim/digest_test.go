package sim

import (
	"encoding/binary"
	"errors"
	"testing"

	"pilotrf/internal/fault"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/isa"
)

// foldReadDigestRef is the per-lane dataflow-digest fold, kept as the
// reference for foldReadDigest: every active lane of every source row
// adds its mix to readHash and one to readCount on the SM itself.
func foldReadDigestRef(s *sm, w *warpCtx, in *isa.Instruction, execMask uint32) {
	w.execSeq++
	var srcs [3]isa.Reg
	reads := in.SrcRegs(srcs[:0])
	if len(reads) == 0 {
		return
	}
	base := mix64(uint64(uint32(w.cta.id))<<32|uint64(uint32(w.inCTA))) ^ w.execSeq
	for _, r := range reads {
		for lane := 0; lane < 32; lane++ {
			if execMask&(1<<uint(lane)) == 0 {
				continue
			}
			h := mix64(base ^ uint64(r)<<40 ^ uint64(uint32(lane))<<32 ^ uint64(w.regs[r][lane]))
			s.readHash += h
			s.readCount++
		}
	}
}

// FuzzReadDigest checks foldReadDigest against the per-lane reference
// on one instruction. The fuzz input chooses the source count (1-3:
// MOV, IADD or IMAD) and the sources (a register or RZ; repeats such as
// IMAD R2, R0, R0, R0 are allowed), the execution mask (mode 0 runs
// every lane, mode 1 the single lane mask%32, any other mode mask
// itself), the warp's execSeq, the digest's starting hash and count,
// and the lane values: four bytes per lane, little-endian, reused from
// the start when the bytes run out.
func FuzzReadDigest(f *testing.F) {
	ramp := make([]byte, 0, 4*32*execRegs)
	for i := uint32(0); i < 32*execRegs; i++ {
		ramp = binary.LittleEndian.AppendUint32(ramp, i*0x9E3779B9)
	}
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint32(0), uint64(0), uint64(0), uint64(0), ramp)
	f.Add(uint8(0), uint8(3), uint8(1), uint8(2), uint8(1), uint32(31), uint64(41), uint64(0xDEADBEEF), uint64(7), []byte{1, 2, 3})
	f.Add(uint8(1), uint8(1), uint8(6), uint8(4), uint8(2), uint32(0x5A5A0FF0), uint64(1)<<40, ^uint64(0), uint64(1)<<63, ramp)
	f.Add(uint8(2), uint8(5), uint8(5), uint8(2), uint8(2), uint32(0x80000001), uint64(3), uint64(0), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, nsrc, srcA, srcB, srcC, mode uint8, mask uint32, seq, hash, count uint64, lanes []byte) {
		reg := func(b uint8) isa.Reg {
			if r := b % (execRegs + 1); r < execRegs {
				return isa.Reg(r)
			}
			return isa.RZ
		}
		n := int(nsrc%3) + 1
		op := [...]isa.Op{isa.OpMOV, isa.OpIADD, isa.OpIMAD}[n-1]
		in := execInstr(op, n, 0, [3]isa.Reg{reg(srcA), reg(srcB), reg(srcC)}, isa.PredNone, 0, 0, 0)
		switch mode % 3 {
		case 0:
			mask = fullMask
		case 1:
			mask = 1 << (mask % 32)
		}
		s, w := execFixture()
		for k := 0; k < execRegs*32 && len(lanes) > 0; k++ {
			var b [4]byte
			for j := range b {
				b[j] = lanes[(4*k+j)%len(lanes)]
			}
			w.regs[k/32][k%32] = binary.LittleEndian.Uint32(b[:])
		}
		rs, rw := execFixture()
		copy(rw.regs, w.regs)
		w.execSeq, rw.execSeq = seq, seq
		s.readHash, rs.readHash = hash, hash
		s.readCount, rs.readCount = count, count

		s.foldReadDigest(w, &in, mask)
		foldReadDigestRef(rs, rw, &in, mask)
		if s.readHash != rs.readHash || s.readCount != rs.readCount || w.execSeq != rw.execSeq {
			t.Fatalf("%v under mask %#x: hash %#x count %d seq %d, want the per-lane fold's %#x, %d, %d",
				in, mask, s.readHash, s.readCount, w.execSeq, rs.readHash, rs.readCount, rw.execSeq)
		}
	})
}

// kindCounts is a flightrec.Sink that counts the events of each kind.
type kindCounts map[flightrec.Kind]int

// Record implements flightrec.Sink.
func (c kindCounts) Record(e flightrec.Event) { c[e.Kind]++ }

// ChecksumEvery implements flightrec.Sink.
func (c kindCounts) ChecksumEvery() int64 { return flightrec.DefaultChecksumEvery }

// TestDigestProbeMatchesRecorder runs one faulty config twice, once
// with a fault.DigestProbe and once with a flightrec.Recorder, on
// part-adaptive and rfc-hints with 2 SMs. The SM skips the issue and
// route events for a probe, which drops them; the per-kernel digests
// the probe keeps must still equal those folded from the recorder's
// KindReadHash events, and an SM built for a probe must hand its sink
// no KindIssue or KindRoute event while one built for the recorder
// hands it both.
func TestDigestProbeMatchesRecorder(t *testing.T) {
	for _, scheme := range []string{"part-adaptive", "rfc-hints"} {
		for _, bench := range []string{"nw", "backprop"} {
			w := scaledWorkload(t, bench, 0.05)
			cfg := schemeConfig(t, scheme)
			cfg.NumSMs = 2
			cfg.Fault = &fault.Config{Rate: 2e-11, Seed: 3}
			cfg.MaxCycles = 200_000

			run := func(sink flightrec.Sink) (RunStats, error) {
				c := cfg
				c.Record = sink
				g, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := g.RunKernels(w.Name, w.Kernels)
				if err != nil && !errors.Is(err, ErrCycleLimit) {
					t.Fatalf("%s/%s: %v", scheme, bench, err)
				}
				return rs, err
			}
			probe := fault.NewDigestProbe()
			probeRS, probeErr := run(probe)
			rec := NewFlightRecorder(&cfg, "digest", 0)
			recRS, recErr := run(rec)
			if (probeErr == nil) != (recErr == nil) {
				t.Fatalf("%s/%s: the probe's run ended in %v, the recorder's in %v", scheme, bench, probeErr, recErr)
			}
			var injected uint64
			for _, k := range probeRS.Kernels {
				injected += k.Fault.TotalInjected()
			}
			if injected == 0 {
				t.Errorf("%s/%s: no fault injected", scheme, bench)
			}

			folded := fault.NewDigestProbe()
			for _, e := range rec.Log().Events {
				folded.Record(e)
			}
			got, want := probe.Digests(), folded.Digests()
			if len(got) != len(w.Kernels) || len(got) != len(recRS.Kernels) {
				t.Fatalf("%s/%s: the probe saw %d kernels, the recorder %d, want %d",
					scheme, bench, len(got), len(recRS.Kernels), len(w.Kernels))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("%s/%s kernel %d: probe digest %+v, recorder's read hashes fold to %+v",
						scheme, bench, k, got[k], want[k])
				}
				if got[k].Reads == 0 {
					t.Errorf("%s/%s kernel %d: the digest counts no operand reads", scheme, bench, k)
				}
			}

			// Build one SM per sink, then swap a counting sink in to see
			// what the SM would hand its own.
			for _, tc := range []struct {
				sink    flightrec.Sink
				streams bool
			}{{fault.NewDigestProbe(), false}, {NewFlightRecorder(&cfg, "digest", 0), true}} {
				c := cfg
				c.Record = tc.sink
				s := loadSM(t, &c, &w.Kernels[0])
				counts := kindCounts{}
				s.rec = counts
				for s.busy() && s.run.fatal == nil && s.now < cfg.MaxCycles {
					s.tick()
				}
				issues, routes := counts[flightrec.KindIssue], counts[flightrec.KindRoute]
				if tc.streams && (issues == 0 || routes == 0) {
					t.Errorf("%s/%s: the recorder's SM handed it %d issue and %d route events, want both",
						scheme, bench, issues, routes)
				}
				if !tc.streams && (issues != 0 || routes != 0) {
					t.Errorf("%s/%s: the probe's SM handed it %d issue and %d route events, want none",
						scheme, bench, issues, routes)
				}
			}
		}
	}
}
