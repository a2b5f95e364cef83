package fault

import (
	"testing"

	"pilotrf/internal/regfile"
)

func testFaultConfig(rate float64) Config {
	return Config{Rate: rate, Seed: 7}
}

func mustInjector(t *testing.T, cfg Config, d regfile.Design, sm, camBits int) *Injector {
	t.Helper()
	in, err := NewInjector(cfg, d, sm, camBits)
	if err != nil {
		t.Fatalf("NewInjector: %v", err)
	}
	return in
}

func TestConfigValidate(t *testing.T) {
	ok := []Config{
		{},
		{Rate: 1e-9, Seed: 3},
		{Rate: 1e-7, StuckAtFrac: -1, ReadPathFrac: 1}, // negative = exactly zero
		{Rate: 1e-7, StuckAtFrac: 1, ReadPathFrac: -1},
	}
	for _, c := range ok {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
	bad := []Config{
		{Rate: -1},
		{StuckAtFrac: 0.9, ReadPathFrac: 0.9}, // sum > 1
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}
}

func TestWithDefaultsNegativeFracsMeanZero(t *testing.T) {
	c := Config{StuckAtFrac: -1, ReadPathFrac: -1}.WithDefaults()
	if c.StuckAtFrac != 0 || c.ReadPathFrac != 0 {
		t.Errorf("negative fracs defaulted to %v/%v, want 0/0", c.StuckAtFrac, c.ReadPathFrac)
	}
	c = Config{}.WithDefaults()
	if c.StuckAtFrac != DefaultStuckAtFrac || c.ReadPathFrac != DefaultReadPathFrac {
		t.Errorf("zero config defaults wrong: %+v", c)
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	in := mustInjector(t, testFaultConfig(0), regfile.DesignPartitioned, 0, 104)
	for i := 0; i < 10000; i++ {
		if _, ok := in.Tick(false); ok {
			t.Fatal("zero-rate injector fired")
		}
	}
	if in.Stats().Fires != 0 {
		t.Errorf("Fires = %d, want 0", in.Stats().Fires)
	}
}

// Equal configs on the same SM must replay the identical shot sequence.
func TestShotSequenceDeterminism(t *testing.T) {
	run := func() []Shot {
		in := mustInjector(t, testFaultConfig(1e-8), regfile.DesignPartitioned, 0, 104)
		var shots []Shot
		for c := 0; c < 200_000; c++ {
			if s, ok := in.Tick(false); ok {
				shots = append(shots, s)
			}
		}
		return shots
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no shots at a rate chosen to produce some")
	}
	if len(a) != len(b) {
		t.Fatalf("shot counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shot %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Different SM ids must fault independently (seed salting).
func TestSMsFaultIndependently(t *testing.T) {
	seq := func(sm int) []Shot {
		in := mustInjector(t, testFaultConfig(1e-8), regfile.DesignPartitioned, sm, 104)
		var shots []Shot
		for c := 0; c < 200_000; c++ {
			if s, ok := in.Tick(false); ok {
				shots = append(shots, s)
			}
		}
		return shots
	}
	a, b := seq(0), seq(1)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("SM 0 and SM 1 replayed identical shot sequences")
		}
	}
}

// The Poisson-thinning discipline: the arrival process (which cycles see
// candidate fires) must not depend on the power-mode history, only the
// acceptance of each arrival may. Fires counts candidates, so two runs
// with different mode histories must agree on it exactly.
func TestThinningArrivalsModeIndependent(t *testing.T) {
	fires := func(mode func(c int) bool) uint64 {
		in := mustInjector(t, testFaultConfig(1e-8), regfile.DesignPartitionedAdaptive, 0, 104)
		for c := 0; c < 300_000; c++ {
			in.Tick(mode(c))
		}
		return in.Stats().Fires
	}
	always := fires(func(int) bool { return false })
	flapping := fires(func(c int) bool { return c%97 < 48 })
	if always == 0 {
		t.Fatal("no candidate arrivals")
	}
	if always != flapping {
		t.Errorf("arrival count depends on mode history: %d vs %d", always, flapping)
	}
}

// Rate proportionality: with the SRF 7x larger than the FRF and 25x more
// vulnerable at NTV, virtually all cell strikes must hit the SRF.
func TestStrikesFollowPartitionRates(t *testing.T) {
	in := mustInjector(t, testFaultConfig(1e-8), regfile.DesignPartitioned, 0, 104)
	counts := map[Target]int{}
	for c := 0; c < 500_000; c++ {
		if s, ok := in.Tick(false); ok {
			counts[s.Target]++
		}
	}
	if counts[TargetSRF] == 0 {
		t.Fatal("no SRF strikes")
	}
	if counts[TargetFRF] >= counts[TargetSRF] {
		t.Errorf("FRF strikes (%d) not dominated by SRF strikes (%d) despite 175x rate ratio",
			counts[TargetFRF], counts[TargetSRF])
	}
	if counts[TargetMRF] != 0 {
		t.Errorf("partitioned design has no MRF, yet %d MRF strikes", counts[TargetMRF])
	}
}

// Monolithic NTV must fault ~25x more often than monolithic STV over the
// same interval (same seed, same array).
func TestNTVFactorRaisesRate(t *testing.T) {
	count := func(d regfile.Design) int {
		in := mustInjector(t, testFaultConfig(1e-9), d, 0, 0)
		n := 0
		for c := 0; c < 300_000; c++ {
			if _, ok := in.Tick(false); ok {
				n++
			}
		}
		return n
	}
	stv, ntv := count(regfile.DesignMonolithicSTV), count(regfile.DesignMonolithicNTV)
	if ntv <= 2*stv {
		t.Errorf("NTV strike count %d not clearly above STV %d (factor should be ~25)", ntv, stv)
	}
}

// CAM shots must carry an entry-bit index inside the 13-bit row. A real
// CAM is ~100 bits and nearly never hit next to the megabit arrays; the
// inflated bit count here just exercises the CAM shot path.
func TestCAMShotsWithinEntry(t *testing.T) {
	cfg := testFaultConfig(1e-6)
	in := mustInjector(t, cfg, regfile.DesignPartitioned, 0, 50_000_000)
	seen := false
	for c := 0; c < 200_000; c++ {
		if s, ok := in.Tick(false); ok && s.Target == TargetCAM {
			seen = true
			if s.Bit < 0 || s.Bit >= regfile.EntryBits {
				t.Fatalf("CAM shot bit %d outside entry", s.Bit)
			}
		}
	}
	if !seen {
		t.Fatal("no CAM shots despite a CAM rate")
	}
}

// Kind fractions: with ReadPathFrac 1 every cell shot is read-path; with
// both fracs forced to zero every cell shot is transient.
func TestKindFractions(t *testing.T) {
	kinds := func(cfg Config) map[Kind]int {
		in := mustInjector(t, cfg, regfile.DesignMonolithicNTV, 0, 0)
		m := map[Kind]int{}
		for c := 0; c < 200_000; c++ {
			if s, ok := in.Tick(false); ok {
				m[s.Kind]++
			}
		}
		return m
	}
	all := kinds(Config{Rate: 1e-9, Seed: 7, ReadPathFrac: 1, StuckAtFrac: -1})
	if all[KindTransient]+all[KindStuckAt0]+all[KindStuckAt1] != 0 || all[KindReadPath] == 0 {
		t.Errorf("ReadPathFrac=1 produced %v", all)
	}
	none := kinds(Config{Rate: 1e-9, Seed: 7, ReadPathFrac: -1, StuckAtFrac: -1})
	if none[KindReadPath]+none[KindStuckAt0]+none[KindStuckAt1] != 0 || none[KindTransient] == 0 {
		t.Errorf("forced-zero fracs produced %v", none)
	}
}

func TestTargetPartitionMapping(t *testing.T) {
	if TargetMRF.Partition(false) != regfile.PartMRF || TargetSRF.Partition(true) != regfile.PartSRF {
		t.Error("MRF/SRF target partition mapping wrong")
	}
	if TargetFRF.Partition(false) != regfile.PartFRFHigh {
		t.Error("FRF high-power target partition wrong")
	}
	if TargetFRF.Partition(true) != regfile.PartFRFLow {
		t.Error("FRF low-power target partition wrong")
	}
}
