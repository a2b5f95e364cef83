package sim

import (
	"bytes"
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
