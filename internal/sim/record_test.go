package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/isa"
	"pilotrf/internal/kernel"
	"pilotrf/internal/regfile"
	"pilotrf/internal/stats"
	"pilotrf/internal/workloads"
)

// seedKernel loads memory (whose contents depend on Config.Seed) and
// branches on the loaded value, so different seeds produce different
// control flow — the divergence the diff tests exercise.
func seedKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("seed-branch", 8)
	b.S2R(isa.R(0), isa.SRTid)
	b.SHLI(isa.R(1), isa.R(0), 2)
	b.LDG(isa.R(2), isa.R(1), 0)
	b.ANDI(isa.R(3), isa.R(2), 3)
	b.SETPI(isa.P(0), isa.R(3), isa.CmpGT, 0)
	b.If(isa.P(0), false, func() {
		b.IADD(isa.R(4), isa.R(2), isa.R(0))
		b.IMUL(isa.R(4), isa.R(4), isa.R(2))
	})
	b.STG(isa.R(1), 0, isa.R(4))
	b.EXIT()
	return &kernel.Kernel{Prog: b.MustBuild(), ThreadsPerCTA: 64, NumCTAs: 2}
}

// recordRun executes k under cfg with a fresh recorder attached and
// returns the stats and the recording.
func recordRun(t *testing.T, cfg Config, k *kernel.Kernel, every int64) (KernelStats, *flightrec.Log) {
	t.Helper()
	rec := NewFlightRecorder(&cfg, "test", every)
	cfg.Record = rec
	ks := mustRun(t, cfg, k)
	return ks, rec.Log()
}

// TestFlightRecorderDoesNotPerturbTiming is the acceptance gate:
// attaching a recorder must leave cycle and access counts bit-identical
// on every registered design scheme.
func TestFlightRecorderDoesNotPerturbTiming(t *testing.T) {
	k := seedKernel(t)
	for _, sch := range design.All() {
		cfg, err := testConfig().WithScheme(sch, sch.DefaultKnobs())
		if err != nil {
			t.Fatal(err)
		}
		plain := mustRun(t, cfg, k)
		recorded, log := recordRun(t, cfg, k, 32)
		if plain.Cycles != recorded.Cycles {
			t.Errorf("%s: recording changed cycles %d -> %d", sch.Name(), plain.Cycles, recorded.Cycles)
		}
		if plain.RegReads != recorded.RegReads || plain.RegWrites != recorded.RegWrites {
			t.Errorf("%s: recording changed access counts", sch.Name())
		}
		if plain.PartAccesses != recorded.PartAccesses {
			t.Errorf("%s: recording changed partition routing", sch.Name())
		}
		if len(log.Events) == 0 {
			t.Errorf("%s: recorder captured nothing", sch.Name())
		}
	}
}

// TestRecordDisabledZeroAlloc asserts the disabled recording path — the
// per-cycle countdown and the per-event nil guards — never allocates.
func TestRecordDisabledZeroAlloc(t *testing.T) {
	cfg := testConfig()
	ks := KernelStats{RegHist: stats.NewHistogram(4)}
	run := &runState{cfg: &cfg, kern: benchKernel(t), stats: &ks}
	s, err := newSM(0, &cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	s.launchCTA(0)
	if s.rec != nil {
		t.Fatal("recorder attached without Config.Record")
	}
	if a := testing.AllocsPerRun(1000, func() {
		s.recordTick()
		s.now++
	}); a != 0 {
		t.Errorf("disabled recordTick allocates %.1f per cycle, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		s.countPartAccess(regfile.PartMRF, 0, isa.R(1))
	}); a != 0 {
		t.Errorf("disabled countPartAccess allocates %.1f per call, want 0", a)
	}
}

func TestRecordingEventStreamShape(t *testing.T) {
	k := seedKernel(t)
	cfg := schemeConfig(t, "part-adaptive")
	ks, log := recordRun(t, cfg, k, 16)

	if got := log.CountKind(flightrec.KindKernelBegin); got != 1 {
		t.Errorf("kernel-begin events = %d, want 1", got)
	}
	if got := log.CountKind(flightrec.KindKernelEnd); got != 1 {
		t.Errorf("kernel-end events = %d, want 1", got)
	}
	if got := log.CountKind(flightrec.KindCTALaunch); got != k.NumCTAs {
		t.Errorf("cta-launch events = %d, want %d", got, k.NumCTAs)
	}
	if got := log.CountKind(flightrec.KindIssue); uint64(got) != ks.WarpInstrs {
		t.Errorf("issue events = %d, want WarpInstrs %d", got, ks.WarpInstrs)
	}
	var partTotal uint64
	for _, n := range ks.PartAccesses {
		partTotal += n
	}
	if got := log.CountKind(flightrec.KindRoute); uint64(got) != partTotal {
		t.Errorf("route events = %d, want PartAccesses total %d", got, partTotal)
	}
	warps := k.NumCTAs * k.WarpsPerCTA()
	if got := log.CountKind(flightrec.KindWarpRetire); got != warps {
		t.Errorf("warp-retire events = %d, want %d", got, warps)
	}
	// Periodic cadence plus the final drain checksum: at least
	// cycles/interval checksums, and at least one.
	sums := log.Checksums()
	if min := int(ks.Cycles / 16); len(sums) < min || len(sums) == 0 {
		t.Errorf("checksums = %d, want >= max(%d, 1) for %d cycles", len(sums), min, ks.Cycles)
	}
	// The first event must be kernel-begin, the last kernel-end.
	if log.Events[0].Kind != flightrec.KindKernelBegin {
		t.Errorf("first event kind = %v", log.Events[0].Kind)
	}
	if last := log.Events[len(log.Events)-1]; last.Kind != flightrec.KindKernelEnd {
		t.Errorf("last event kind = %v", last.Kind)
	}
}

// TestReplayVerificationAllWorkloadsAllDesigns is the acceptance
// property test: for every tier-1 workload and every registered design
// scheme, a re-run of the recorded configuration must reproduce the
// event stream exactly. New schemes registered in internal/design are
// swept automatically.
func TestReplayVerificationAllWorkloadsAllDesigns(t *testing.T) {
	for _, sch := range design.All() {
		for _, w := range workloads.All() {
			w = w.Scale(0.05)
			cfg, err := testConfig().WithScheme(sch, sch.DefaultKnobs())
			if err != nil {
				t.Fatal(err)
			}

			rec := NewFlightRecorder(&cfg, w.Name, 64)
			cfg.Record = rec
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.RunKernels(w.Name, w.Kernels); err != nil {
				t.Fatalf("%s/%s record: %v", sch.Name(), w.Name, err)
			}

			chk := flightrec.NewChecker(rec.Log())
			cfg2, err := testConfig().WithScheme(sch, sch.DefaultKnobs())
			if err != nil {
				t.Fatal(err)
			}
			cfg2.Record = chk
			g2, err := New(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g2.RunKernels(w.Name, w.Kernels); err != nil {
				t.Fatalf("%s/%s replay: %v", sch.Name(), w.Name, err)
			}
			if err := chk.Err(); err != nil {
				t.Errorf("%s/%s: %v", sch.Name(), w.Name, err)
			}
		}
	}
}

// TestReplayCatchesConfigDrift: replaying a recording against a
// different seed must fail, and the reported divergence must name a
// real stream position.
func TestReplayCatchesConfigDrift(t *testing.T) {
	k := seedKernel(t)
	cfg := testConfig()
	cfg.Seed = 1
	_, log := recordRun(t, cfg, k, 32)

	chk := flightrec.NewChecker(log)
	cfg2 := testConfig()
	cfg2.Seed = 99
	cfg2.Record = chk
	g, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunKernel(k); err != nil {
		t.Fatal(err)
	}
	if err := chk.Err(); err == nil {
		t.Fatal("replay with a different seed passed verification")
	}
	if d := chk.Divergence(); d != nil && d.Index >= len(log.Events) && d.Recorded != nil {
		t.Errorf("divergence index %d out of range", d.Index)
	}
}

// TestDifferentSeedDiffConsistentWithChecksums is the rfdiff acceptance
// property: diffing two different-seed recordings reports a
// first-divergence cycle no later than the first checksum mismatch
// (events are finer-grained than the periodic checksums).
func TestDifferentSeedDiffConsistentWithChecksums(t *testing.T) {
	k := seedKernel(t)
	cfgA := testConfig()
	cfgA.Seed = 1
	_, logA := recordRun(t, cfgA, k, 16)
	cfgB := testConfig()
	cfgB.Seed = 2
	_, logB := recordRun(t, cfgB, k, 16)

	r := flightrec.Diff(logA, logB, 3)
	if !r.Diverged {
		t.Fatal("different-seed runs did not diverge")
	}
	if r.Cycle < 0 {
		t.Fatalf("no divergence cycle reported: %+v", r)
	}
	if r.ChecksumOrdinal < 0 {
		t.Fatal("no checksum mismatch found for diverging runs")
	}
	firstSum := r.ChecksumCycleA
	if r.ChecksumCycleB < firstSum {
		firstSum = r.ChecksumCycleB
	}
	if r.Cycle > firstSum {
		t.Errorf("first event divergence at cycle %d is later than first checksum mismatch at %d",
			r.Cycle, firstSum)
	}
	if r.Subsystem == "" || r.Subsystem == "unknown" {
		t.Errorf("no subsystem blamed: %q", r.Subsystem)
	}
}

// TestRecordingNDJSONRoundTripReplays: a recording survives the NDJSON
// round trip and still verifies a fresh replay.
func TestRecordingNDJSONRoundTripReplays(t *testing.T) {
	k := seedKernel(t)
	_, log := recordRun(t, testConfig(), k, 32)

	var buf bytes.Buffer
	if err := log.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := flightrec.ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	chk := flightrec.NewChecker(loaded)
	cfg := testConfig()
	cfg.Record = chk
	mustRun(t, cfg, k)
	if err := chk.Err(); err != nil {
		t.Errorf("replay of NDJSON round-tripped log: %v", err)
	}
	if chk.ChecksumEvery() != 32 {
		t.Errorf("round-tripped checksum interval = %d, want 32", chk.ChecksumEvery())
	}
}

// TestFnvAdd32MatchesFnvAdd: folding a 32-bit value with fnvAdd32 gives
// the hash fnvAdd gives for the zero-extended value, bit for bit, so
// the checksums in recorded goldens do not depend on which fold ran.
func TestFnvAdd32MatchesFnvAdd(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 32))
	check := func(h uint64, v uint32) {
		t.Helper()
		if got, want := fnvAdd32(h, v), fnvAdd(h, uint64(v)); got != want {
			t.Fatalf("fnvAdd32(%#x, %#x) = %#x, want fnvAdd's %#x", h, v, got, want)
		}
	}
	for _, v := range []uint32{0, 0xff, 0x100, 0xffff, 0x10000, 0xffffff, 0x1000000, 1 << 31, 0xffffffff} {
		check(fnvOffset, v)
		check(0, v)
		check(rng.Uint64(), v)
	}
	for i := 0; i < 10000; i++ {
		check(rng.Uint64(), rng.Uint32())
	}
}

// TestRowHash: on random rows, flipping any single bit of any lane, or
// swapping any two unequal lanes, changes rowHash. The flips are
// guaranteed by construction; the swaps include, for every pair of
// lanes, two that differ only in bit 31, which a multiply–xor step
// without the rotation would pass unseen when both lanes are the high
// half of a word in one accumulator.
func TestRowHash(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 32))
	for n := 0; n < 20; n++ {
		var row [32]uint32
		if n > 0 {
			for i := range row {
				row[i] = rng.Uint32()
			}
		}
		h := rowHash(&row)
		for bit := 0; bit < 32*len(row); bit++ {
			flipped := row
			flipped[bit/32] ^= 1 << (bit % 32)
			if rowHash(&flipped) == h {
				t.Fatalf("row %d: flipping bit %d of lane %d left rowHash %#x", n, bit%32, bit/32, h)
			}
		}
		for i := range row {
			for j := i + 1; j < len(row); j++ {
				for _, v := range []uint32{row[j], row[i] ^ 1<<31} {
					swapped := row
					swapped[j] = v
					if swapped[i] == v {
						continue
					}
					before := rowHash(&swapped)
					swapped[i], swapped[j] = v, swapped[i]
					if rowHash(&swapped) == before {
						t.Fatalf("row %d: swapping lanes %d and %d (%#x, %#x) left rowHash %#x", n, i, j, swapped[j], v, before)
					}
				}
			}
		}
	}
}

// FuzzRowHash checks rowHash's single-row guarantees on any row: the
// fuzz input gives the lanes' bytes, four per lane, little-endian
// (lanes past its end are zero), a bit of the row to flip and two lanes
// to swap.
func FuzzRowHash(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(0), uint8(1))
	f.Add([]byte{0xff, 0, 0, 0, 7, 7, 7, 7, 1}, uint16(37), uint8(1), uint8(2))
	f.Add(bytes.Repeat([]byte{0x12, 0x34, 0x56, 0x78}, 32), uint16(1023), uint8(0), uint8(31))
	f.Add(append(bytes.Repeat([]byte{0}, 36), 0, 0, 0, 0x80), uint16(63), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, lanes []byte, bit uint16, i, j uint8) {
		var row [32]uint32
		for l := range row {
			var b [4]byte
			if 4*l < len(lanes) {
				copy(b[:], lanes[4*l:])
			}
			row[l] = binary.LittleEndian.Uint32(b[:])
		}
		h := rowHash(&row)
		flipped := row
		flipped[bit/32%32] ^= 1 << (bit % 32)
		if rowHash(&flipped) == h {
			t.Fatalf("flipping bit %d of %#x left rowHash %#x", bit%1024, row, h)
		}
		i, j = i%32, j%32
		if row[i] != row[j] {
			row[i], row[j] = row[j], row[i]
			if rowHash(&row) == h {
				t.Fatalf("swapping lanes %d and %d of %#x left rowHash %#x", i, j, row, h)
			}
		}
	})
}

// checksumSink keeps the hashes of the last checksum event.
type checksumSink struct{ a, b uint64 }

// Record implements flightrec.Sink.
func (s *checksumSink) Record(e flightrec.Event) {
	if e.Kind == flightrec.KindChecksum {
		s.a, s.b = e.A, e.B
	}
}

// ChecksumEvery implements flightrec.Sink.
func (s *checksumSink) ChecksumEvery() int64 { return flightrec.DefaultChecksumEvery }

// checksumState returns an SM loaded with sgemm's CTAs (scale 0.1,
// part-adaptive) that has run checksumWarmup cycles, so its registers
// hold the values a run hashes, and the sink that sees its checksums.
func checksumState(tb testing.TB) (*sm, *checksumSink) {
	tb.Helper()
	const checksumWarmup = 3000
	w := scaledWorkload(tb, "sgemm", 0.1)
	cfg := schemeConfig(tb, "part-adaptive")
	sink := &checksumSink{}
	cfg.Record = sink
	s := loadSM(tb, &cfg, &w.Kernels[0])
	for s.now < checksumWarmup && s.busy() {
		s.tick()
	}
	return s, sink
}

// TestChecksumSeparatesRegistersFromControl: on BenchmarkChecksum's
// state, flipping one bit of any resident warp's register changes the
// register hash A and leaves the control hash B, and flipping a
// predicate lane changes B and leaves A.
func TestChecksumSeparatesRegistersFromControl(t *testing.T) {
	s, sink := checksumState(t)
	s.recordChecksum()
	a, b := sink.a, sink.b
	rng := rand.New(rand.NewPCG(40, 3000))
	check := func(what string, wantA, wantB bool) {
		t.Helper()
		s.recordChecksum()
		if (sink.a != a) != wantA || (sink.b != b) != wantB {
			t.Fatalf("%s: A %#x -> %#x, B %#x -> %#x; want A changed %v, B changed %v",
				what, a, sink.a, b, sink.b, wantA, wantB)
		}
	}
	warps := 0
	for _, w := range s.warps {
		if w == nil {
			continue
		}
		warps++
		for r := range w.regs {
			lane, bit := rng.IntN(32), rng.IntN(32)
			w.regs[r][lane] ^= 1 << bit
			check(fmt.Sprintf("warp %d R%d lane %d bit %d", w.slot, r, lane, bit), true, false)
			w.regs[r][lane] ^= 1 << bit
		}
		p, lane := rng.IntN(len(w.preds)), rng.IntN(32)
		w.preds[p] ^= 1 << lane
		check(fmt.Sprintf("warp %d P%d lane %d", w.slot, p, lane), false, true)
		w.preds[p] ^= 1 << lane
	}
	if warps == 0 {
		t.Fatalf("no warp resident at cycle %d", s.now)
	}
	check("restored state", false, false)
}

// BenchmarkChecksum prices one periodic state checksum, recordChecksum,
// of checksumState's SM. ns/op is per checksum; ns/value divides it by
// the register values hashed. A checksum must not allocate.
func BenchmarkChecksum(b *testing.B) {
	s, _ := checksumState(b)
	values := 0
	for _, w := range s.warps {
		if w != nil {
			values += 32 * len(w.regs)
		}
	}
	if values == 0 {
		b.Fatalf("no warp resident at cycle %d", s.now)
	}
	if a := testing.AllocsPerRun(10, s.recordChecksum); a != 0 {
		b.Fatalf("recordChecksum allocates %v times per call", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.recordChecksum()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
}
