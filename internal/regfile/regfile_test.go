package regfile

import (
	"testing"
	"testing/quick"

	"pilotrf/internal/isa"
)

func mustSwapTable(t testing.TB, topN int) *SwapTable {
	t.Helper()
	st, err := NewSwapTable(topN)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustFile(t testing.TB, cfg Config) *File {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// route routes architected register r as the SM does: PhysicalReg at
// enqueue, then Route at service.
func route(f *File, r isa.Reg) (Partition, int) { return f.Route(f.PhysicalReg(r)) }

func mustAdaptive(t testing.TB, cfg AdaptiveConfig) *AdaptiveFRF {
	t.Helper()
	a, err := NewAdaptiveFRF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func regs(ns ...int) []isa.Reg {
	out := make([]isa.Reg, len(ns))
	for i, n := range ns {
		out[i] = isa.R(n)
	}
	return out
}

// The paper's Figure 7 walkthrough: promoting R8..R11 with an FRF of 4
// swaps them pairwise with R0..R3.
func TestSwapTablePaperExample(t *testing.T) {
	st := mustSwapTable(t, 4)
	st.Configure(regs(8, 9, 10, 11), 4)
	wantPairs := map[isa.Reg]isa.Reg{
		isa.R(0): isa.R(8), isa.R(8): isa.R(0),
		isa.R(1): isa.R(9), isa.R(9): isa.R(1),
		isa.R(2): isa.R(10), isa.R(10): isa.R(2),
		isa.R(3): isa.R(11), isa.R(11): isa.R(3),
	}
	for arch, phys := range wantPairs {
		if got := st.Lookup(arch); got != phys {
			t.Errorf("Lookup(%s) = %s, want %s", arch, got, phys)
		}
	}
	// Unswapped registers map to themselves.
	if got := st.Lookup(isa.R(5)); got != isa.R(5) {
		t.Errorf("Lookup(R5) = %s, want R5", got)
	}
	if n := len(st.Entries()); n != 8 {
		t.Errorf("table has %d entries, want 8", n)
	}
}

// The paper: an 8-entry table costs 104 bits (13 bits per entry).
func TestSwapTableBits(t *testing.T) {
	if got := mustSwapTable(t, 4).Bits(); got != 104 {
		t.Errorf("Bits = %d, want 104", got)
	}
}

func TestSwapTableAlreadyResidentTopRegs(t *testing.T) {
	st := mustSwapTable(t, 4)
	// R2 already lives in the FRF; only R8 and R9 need swaps, and they
	// must not displace R2.
	st.Configure(regs(8, 2, 9), 4)
	if got := st.Lookup(isa.R(2)); got != isa.R(2) {
		t.Errorf("resident top register moved: Lookup(R2) = %s", got)
	}
	// R8 and R9 take the free slots 0 and 1.
	if got := st.Lookup(isa.R(8)); got != isa.R(0) {
		t.Errorf("Lookup(R8) = %s, want R0", got)
	}
	if got := st.Lookup(isa.R(9)); got != isa.R(1) {
		t.Errorf("Lookup(R9) = %s, want R1", got)
	}
	if n := len(st.Entries()); n != 4 {
		t.Errorf("table has %d entries, want 4", n)
	}
}

func TestSwapTableReconfigureResets(t *testing.T) {
	st := mustSwapTable(t, 4)
	st.Configure(regs(8, 9, 10, 11), 4) // compiler seed
	st.Configure(regs(20, 21), 4)       // pilot result replaces it
	if got := st.Lookup(isa.R(8)); got != isa.R(8) {
		t.Errorf("stale mapping survived reconfigure: Lookup(R8) = %s", got)
	}
	if got := st.Lookup(isa.R(20)); got != isa.R(0) {
		t.Errorf("Lookup(R20) = %s, want R0", got)
	}
}

func TestSwapTableResetRestoresIdentity(t *testing.T) {
	st := mustSwapTable(t, 4)
	st.Configure(regs(8, 9), 4)
	st.Reset()
	for r := 0; r < 16; r++ {
		if got := st.Lookup(isa.R(r)); got != isa.R(r) {
			t.Errorf("after Reset, Lookup(R%d) = %s", r, got)
		}
	}
}

func TestSwapTableOverCapacityPanics(t *testing.T) {
	st := mustSwapTable(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	st.Configure(regs(8, 9, 10, 11, 12), 4)
}

// Property: Configure always yields an involution restricted to the
// touched registers — a permutation where Lookup(Lookup(r)) == r — and
// every promoted register lands inside the FRF.
func TestPropertySwapTablePermutation(t *testing.T) {
	f := func(raw []uint8) bool {
		const frf = 4
		// Build a unique top-reg set of size <= frf.
		seen := map[isa.Reg]bool{}
		var top []isa.Reg
		for _, v := range raw {
			r := isa.Reg(v % isa.MaxRegs)
			if !seen[r] {
				seen[r] = true
				top = append(top, r)
			}
			if len(top) == frf {
				break
			}
		}
		st := mustSwapTable(t, frf)
		st.Configure(top, frf)
		for r := 0; r < isa.MaxRegs; r++ {
			if st.Lookup(st.Lookup(isa.R(r))) != isa.R(r) {
				return false
			}
		}
		for _, r := range top {
			if int(st.Lookup(r)) >= frf {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The indexed design must behave identically to the CAM design.
func TestIndexedMatchesCAM(t *testing.T) {
	cases := [][]isa.Reg{
		regs(8, 9, 10, 11),
		regs(8, 2, 9),
		regs(40, 1, 62, 0),
		nil,
	}
	for _, top := range cases {
		cam := mustSwapTable(t, 4)
		idx := NewIndexedSwapTable()
		cam.Configure(top, 4)
		idx.Configure(top, 4)
		for r := 0; r < isa.MaxRegs; r++ {
			if cam.Lookup(isa.R(r)) != idx.Lookup(isa.R(r)) {
				t.Errorf("top=%v: CAM and indexed disagree on R%d", top, r)
			}
		}
	}
}

func TestRouteMonolithic(t *testing.T) {
	stv := mustFile(t, DefaultConfig(DesignMonolithicSTV))
	part, lat := route(stv, isa.R(10))
	if part != PartMRF || lat != 1 {
		t.Errorf("STV route = %v/%d, want MRF/1", part, lat)
	}
	ntv := mustFile(t, DefaultConfig(DesignMonolithicNTV))
	part, lat = route(ntv, isa.R(10))
	if part != PartMRF || lat != 3 {
		t.Errorf("NTV route = %v/%d, want MRF/3", part, lat)
	}
}

func TestRoutePartitioned(t *testing.T) {
	f := mustFile(t, DefaultConfig(DesignPartitioned))
	// Default layout: R0..R3 in FRF, others in SRF.
	part, lat := route(f, isa.R(0))
	if part != PartFRFHigh || lat != 1 {
		t.Errorf("R0 route = %v/%d, want FRF_high/1", part, lat)
	}
	part, lat = route(f, isa.R(10))
	if part != PartSRF || lat != 3 {
		t.Errorf("R10 route = %v/%d, want SRF/3", part, lat)
	}
	// After promotion the routing follows the swapping table.
	f.Mapper().Configure(regs(10, 11, 12, 13), 4)
	if part, _ := route(f, isa.R(10)); part != PartFRFHigh {
		t.Errorf("promoted R10 routed to %v", part)
	}
	if part, _ := route(f, isa.R(0)); part != PartSRF {
		t.Errorf("displaced R0 routed to %v", part)
	}
}

func TestRouteAdaptiveLowPower(t *testing.T) {
	cfg := DefaultConfig(DesignPartitionedAdaptive)
	f := mustFile(t, cfg)
	// Starts in high-power mode.
	if part, _ := route(f, isa.R(0)); part != PartFRFHigh {
		t.Errorf("initial route = %v, want FRF_high", part)
	}
	// An idle epoch (no issues) flips the FRF to low power.
	for i := 0; i < cfg.Adaptive.EpochCycles; i++ {
		f.Adaptive().Tick()
	}
	part, lat := route(f, isa.R(0))
	if part != PartFRFLow || lat != 2 {
		t.Errorf("low-power route = %v/%d, want FRF_low/2", part, lat)
	}
	// SRF routing is unaffected by the FRF mode.
	if part, _ := route(f, isa.R(20)); part != PartSRF {
		t.Errorf("SRF route in low mode = %v", part)
	}
}

func TestAdaptiveThresholdBoundary(t *testing.T) {
	cfg := AdaptiveConfig{EpochCycles: 50, Threshold: 85, MaxIssuePerCycle: 8}
	// Exactly at threshold: not low power (strictly-less comparison).
	a := mustAdaptive(t, cfg)
	a.OnIssue(85)
	for i := 0; i < 50; i++ {
		a.Tick()
	}
	if a.LowPower() {
		t.Error("epoch with issued == threshold flagged low power")
	}
	// One below threshold: low power.
	b := mustAdaptive(t, cfg)
	b.OnIssue(84)
	for i := 0; i < 50; i++ {
		b.Tick()
	}
	if !b.LowPower() {
		t.Error("epoch with issued < threshold not flagged low power")
	}
}

func TestAdaptiveModeHoldsForWholeEpoch(t *testing.T) {
	a := mustAdaptive(t, AdaptiveConfig{EpochCycles: 10, Threshold: 5, MaxIssuePerCycle: 8})
	for i := 0; i < 10; i++ {
		a.Tick() // idle epoch -> next epoch low
	}
	if !a.LowPower() {
		t.Fatal("not low after idle epoch")
	}
	// Heavy issue during the low epoch must not flip the mode mid-epoch.
	for i := 0; i < 9; i++ {
		a.OnIssue(8)
		a.Tick()
		if !a.LowPower() {
			t.Fatalf("mode flipped mid-epoch at cycle %d", i)
		}
	}
	a.OnIssue(8)
	a.Tick() // epoch boundary: 80 issued >= 5 -> back to high
	if a.LowPower() {
		t.Error("mode did not return to high after busy epoch")
	}
}

func TestAdaptiveLowEpochFraction(t *testing.T) {
	a := mustAdaptive(t, AdaptiveConfig{EpochCycles: 10, Threshold: 5, MaxIssuePerCycle: 8})
	// Epoch 1: idle (low). Epoch 2: busy (high).
	for i := 0; i < 10; i++ {
		a.Tick()
	}
	for i := 0; i < 10; i++ {
		a.OnIssue(8)
		a.Tick()
	}
	if got := a.LowEpochFraction(); got != 0.5 {
		t.Errorf("LowEpochFraction = %g, want 0.5", got)
	}
}

func TestWithThresholdRatio(t *testing.T) {
	cfg := AdaptiveConfig{EpochCycles: 100, MaxIssuePerCycle: 8}.WithThresholdRatio(0.2)
	if cfg.Threshold != 160 {
		t.Errorf("Threshold = %d, want 160", cfg.Threshold)
	}
	// The paper's own numbers: 50-cycle epoch, 8-wide issue, ~20% -> 80
	// (they round to 85; both behave equivalently in the sweep).
	cfg50 := AdaptiveConfig{EpochCycles: 50, MaxIssuePerCycle: 8}.WithThresholdRatio(0.2125)
	if cfg50.Threshold != 85 {
		t.Errorf("paper threshold = %d, want 85", cfg50.Threshold)
	}
}

func TestAdaptiveConfigErrors(t *testing.T) {
	for _, cfg := range []AdaptiveConfig{
		{EpochCycles: 0, Threshold: 1, MaxIssuePerCycle: 8},
		{EpochCycles: 50, Threshold: -1, MaxIssuePerCycle: 8},
		{EpochCycles: 50, Threshold: 401, MaxIssuePerCycle: 8},
	} {
		if _, err := NewAdaptiveFRF(cfg); err == nil {
			t.Errorf("config %+v did not error", cfg)
		}
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewSwapTable(0); err == nil {
		t.Error("NewSwapTable(0) did not error")
	}
	if _, err := New(Config{Design: DesignMonolithicSTV, Banks: 0}); err == nil {
		t.Error("New with no banks did not error")
	}
	bad := DefaultConfig(DesignPartitioned)
	bad.FRFRegs = 0
	if _, err := New(bad); err == nil {
		t.Error("partitioned New with empty FRF did not error")
	}
	badAdaptive := DefaultConfig(DesignPartitionedAdaptive)
	badAdaptive.Adaptive.EpochCycles = 0
	if _, err := New(badAdaptive); err == nil {
		t.Error("adaptive New with zero epoch did not error")
	}
}

func TestBankStriping(t *testing.T) {
	f := mustFile(t, DefaultConfig(DesignPartitioned))
	// Consecutive registers of one warp land in different banks.
	if f.BankOf(0, isa.R(0)) == f.BankOf(0, isa.R(1)) {
		t.Error("consecutive registers share a bank")
	}
	// The same register of consecutive warps lands in different banks.
	if f.BankOf(0, isa.R(0)) == f.BankOf(1, isa.R(0)) {
		t.Error("same register of consecutive warps shares a bank")
	}
	// Banks stay in range.
	for w := 0; w < 64; w++ {
		for r := 0; r < 63; r++ {
			b := f.BankOf(w, isa.R(r))
			if b < 0 || b >= 24 {
				t.Fatalf("bank %d out of range", b)
			}
		}
	}
}

func TestPhysicalRegIdentityForMonolithic(t *testing.T) {
	f := mustFile(t, DefaultConfig(DesignMonolithicSTV))
	if got := f.PhysicalReg(isa.R(9)); got != isa.R(9) {
		t.Errorf("PhysicalReg = %s, want R9", got)
	}
}

func TestDesignAndPartitionStrings(t *testing.T) {
	if DesignPartitionedAdaptive.String() == "" || PartFRFLow.String() != "FRF_low" {
		t.Error("string names wrong")
	}
}
