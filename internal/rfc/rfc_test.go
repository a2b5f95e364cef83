package rfc

import (
	"testing"
	"testing/quick"

	"pilotrf/internal/isa"
)

func TestReadMissThenHit(t *testing.T) {
	c := New(2, 1, nil)
	if c.Read(0, isa.R(5)) {
		t.Fatal("cold read hit")
	}
	if !c.Read(0, isa.R(5)) {
		t.Fatal("second read missed (allocate-on-miss broken)")
	}
	st := c.Stats()
	if st.ReadHits != 1 || st.ReadMiss != 1 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWriteAllocatesDirty(t *testing.T) {
	c := New(2, 1, nil)
	c.Write(0, isa.R(3))
	if !c.Contains(0, isa.R(3)) {
		t.Fatal("write did not allocate")
	}
	if !c.Read(0, isa.R(3)) {
		t.Fatal("read after write missed")
	}
	// Flushing must write the dirty value back.
	if wb := c.FlushWarp(0, nil); len(wb) != 1 || wb[0] != isa.R(3) {
		t.Errorf("flush wrote back %v, want [R3]", wb)
	}
}

func TestFIFOEvictionOrder(t *testing.T) {
	c := New(2, 1, nil)
	c.Write(0, isa.R(1)) // oldest
	c.Write(0, isa.R(2))
	c.Read(0, isa.R(1)) // FIFO: touching R1 does not refresh it
	c.Write(0, isa.R(3))
	if c.Contains(0, isa.R(1)) {
		t.Error("FIFO should have evicted the oldest entry (R1)")
	}
	if !c.Contains(0, isa.R(2)) || !c.Contains(0, isa.R(3)) {
		t.Error("wrong entries evicted")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := New(1, 1, nil)
	c.Write(0, isa.R(1)) // dirty
	c.Write(0, isa.R(2)) // evicts dirty R1
	st := c.Stats()
	if st.Evictions != 1 || st.DirtyWB != 1 {
		t.Errorf("stats = %+v, want 1 eviction and 1 dirty writeback", st)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := New(1, 1, nil)
	c.Read(0, isa.R(1))  // fill, clean
	c.Write(0, isa.R(2)) // evicts clean R1
	st := c.Stats()
	if st.Evictions != 1 || st.DirtyWB != 0 {
		t.Errorf("stats = %+v, want eviction without writeback", st)
	}
}

func TestRewriteSameRegisterNoEviction(t *testing.T) {
	c := New(2, 1, nil)
	c.Write(0, isa.R(1))
	c.Write(0, isa.R(1))
	c.Write(0, isa.R(1))
	if got := c.Stats().Evictions; got != 0 {
		t.Errorf("evictions = %d, want 0", got)
	}
	if got := c.ValidEntries(0); got != 1 {
		t.Errorf("valid entries = %d, want 1", got)
	}
}

func TestWarpsIsolated(t *testing.T) {
	c := New(2, 2, nil)
	c.Write(0, isa.R(1))
	if c.Contains(1, isa.R(1)) {
		t.Error("warp 1 sees warp 0's entry")
	}
	if c.Read(1, isa.R(1)) {
		t.Error("cross-warp hit")
	}
}

func TestFlushInvalidatesAll(t *testing.T) {
	c := New(4, 1, nil)
	c.Write(0, isa.R(1))
	c.Read(0, isa.R(2))
	wb := c.FlushWarp(0, nil)
	if len(wb) != 1 || wb[0] != isa.R(1) {
		t.Errorf("flush writebacks = %v, want [R1] (only the dirty entry)", wb)
	}
	if c.ValidEntries(0) != 0 {
		t.Error("entries survived flush")
	}
	if c.Stats().Flushes != 1 {
		t.Error("flush not counted")
	}
}

// TestFlushWarpAppendsToCallerBuffer: FlushWarp keeps dst's elements,
// counts only its own writebacks, and flushes into a reused buffer
// without allocating.
func TestFlushWarpAppendsToCallerBuffer(t *testing.T) {
	c := New(4, 1, nil)
	c.Write(0, isa.R(1))
	got := c.FlushWarp(0, []isa.Reg{isa.R(7)})
	if len(got) != 2 || got[0] != isa.R(7) || got[1] != isa.R(1) {
		t.Errorf("flush = %v, want [R7 R1]", got)
	}
	if wb := c.Stats().DirtyWB; wb != 1 {
		t.Errorf("dirty writebacks = %d, want 1", wb)
	}
	buf := make([]isa.Reg, 0, 4)
	if a := testing.AllocsPerRun(100, func() {
		c.Write(0, isa.R(2))
		buf = c.FlushWarp(0, buf[:0])
	}); a != 0 {
		t.Errorf("FlushWarp into a reused buffer allocates %.1f per call, want 0", a)
	}
}

func TestTagChecksCounted(t *testing.T) {
	c := New(2, 1, nil)
	c.Read(0, isa.R(1))
	c.Write(0, isa.R(2))
	c.Read(0, isa.R(2))
	if got := c.Stats().TagChecks; got != 3 {
		t.Errorf("tag checks = %d, want 3", got)
	}
}

func TestHitRate(t *testing.T) {
	c := New(4, 1, nil)
	c.Write(0, isa.R(1))
	c.Read(0, isa.R(1)) // hit
	c.Read(0, isa.R(2)) // miss
	if got := c.Stats().HitRate(); got != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

func TestMRFTrafficAccessors(t *testing.T) {
	c := New(1, 1, nil)
	c.Read(0, isa.R(1))  // miss -> MRF read
	c.Write(0, isa.R(2)) // evicts clean R1
	c.Write(0, isa.R(3)) // evicts dirty R2 -> MRF write
	st := c.Stats()
	if st.MRFReads() != 1 {
		t.Errorf("MRF reads = %d, want 1", st.MRFReads())
	}
	if st.MRFWrites() != 1 {
		t.Errorf("MRF writes = %d, want 1", st.MRFWrites())
	}
}

func TestPanicsOnBadInputs(t *testing.T) {
	c := New(2, 2, nil)
	cases := []func(){
		func() { c.Read(-1, isa.R(0)) },
		func() { c.Read(2, isa.R(0)) },
		func() { c.Read(0, isa.RZ) },
		func() { c.Write(0, isa.RegNone) },
		func() { New(0, 1, nil) },
		func() { New(1, 0, nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := New(2, 1, nil)
	c.Write(0, isa.R(1))
	c.ResetStats()
	if c.Stats().Writes != 0 {
		t.Error("stats not reset")
	}
	if !c.Contains(0, isa.R(1)) {
		t.Error("contents lost on stats reset")
	}
}

// Property: valid entries per warp never exceed the configured capacity,
// and reads after a write to the same register always hit.
func TestPropertyCapacityAndCoherence(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(3, 2, nil)
		lastWrite := map[int]isa.Reg{}
		for _, op := range ops {
			warp := int(op>>1) % 2
			r := isa.Reg((op >> 2) % 16)
			if op&1 == 0 {
				c.Read(warp, r)
			} else {
				c.Write(warp, r)
				lastWrite[warp] = r
			}
			if c.ValidEntries(0) > 3 || c.ValidEntries(1) > 3 {
				return false
			}
		}
		// The most recently written register of each warp must still
		// be resident unless >=3 other registers displaced it; with
		// FIFO a just-written register can only be displaced by 3
		// subsequent installs, so check only immediately.
		for warp, r := range lastWrite {
			c.Write(warp, r)
			if !c.Contains(warp, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
