// Package rfc models the register file cache baseline (Gebhart et al.,
// ISCA 2011) the paper compares against: a small per-warp cache of
// recently produced register values in front of the MRF, managed together
// with the two-level warp scheduler (entries exist only for warps in the
// scheduler's active pool and are flushed on demotion).
//
// The cache is a pure control/bookkeeping model: the simulator keeps the
// architectural register values; this package decides hits, allocations,
// evictions, and writebacks, and counts the events the energy model
// prices.
package rfc

import (
	"fmt"

	"pilotrf/internal/isa"
)

// ReplacePolicy selects the eviction order within a warp's entries.
type ReplacePolicy uint8

// Replacement policies. The ISCA'11 design used FIFO; LRU is provided for
// sensitivity studies.
const (
	FIFO ReplacePolicy = iota
	LRU
)

// String returns the policy name.
func (p ReplacePolicy) String() string {
	if p == LRU {
		return "LRU"
	}
	return "FIFO"
}

// Config sizes the cache.
type Config struct {
	// EntriesPerWarp is the number of registers cached per warp (6 in
	// the paper's comparison).
	EntriesPerWarp int
	// Warps is the number of warp slots with RFC storage (the active
	// pool size of the two-level scheduler).
	Warps int
	// Policy is the replacement policy.
	Policy ReplacePolicy
	// AllocateOnReadMiss controls whether values fetched from the MRF
	// on a read miss are installed in the cache (the ISCA'11 design
	// installs them).
	AllocateOnReadMiss bool
	// Hints, when non-empty, switches the cache to compiler-assisted
	// allocation: only the hinted registers may hold entries; accesses
	// to any other register bypass straight to the MRF without a tag
	// probe (the compiler knows statically they are never cached).
	Hints []isa.Reg
}

// DefaultConfig returns the paper's comparison configuration for the
// given active-warp count.
func DefaultConfig(activeWarps int) Config {
	return Config{
		EntriesPerWarp:     6,
		Warps:              activeWarps,
		Policy:             FIFO,
		AllocateOnReadMiss: true,
	}
}

// Stats counts the events an RFC produces; the energy model multiplies
// them by per-event energies.
type Stats struct {
	ReadHits  uint64 // reads served by the RFC
	ReadMiss  uint64 // reads that fell through to the MRF
	Writes    uint64 // result writes (always allocate in the RFC)
	Fills     uint64 // RFC installs on read miss
	Evictions uint64 // entries displaced (any state)
	DirtyWB   uint64 // displaced or flushed dirty entries written to MRF
	TagChecks uint64 // CAM tag probes (every read and write of a cacheable register)
	Flushes   uint64 // warp flushes (two-level scheduler demotions)
	// Bypasses of the compiler-assisted mode: accesses to non-hinted
	// registers that went straight to the MRF without a tag probe.
	ReadBypass  uint64
	WriteBypass uint64
}

// Add folds another run's counters in.
func (s *Stats) Add(o Stats) {
	s.ReadHits += o.ReadHits
	s.ReadMiss += o.ReadMiss
	s.Writes += o.Writes
	s.Fills += o.Fills
	s.Evictions += o.Evictions
	s.DirtyWB += o.DirtyWB
	s.TagChecks += o.TagChecks
	s.Flushes += o.Flushes
	s.ReadBypass += o.ReadBypass
	s.WriteBypass += o.WriteBypass
}

// MRFReads returns the number of MRF read accesses induced (read misses
// and compiler-directed bypasses).
func (s Stats) MRFReads() uint64 { return s.ReadMiss + s.ReadBypass }

// MRFWrites returns the number of MRF write accesses induced (dirty
// writebacks and compiler-directed bypasses).
func (s Stats) MRFWrites() uint64 { return s.DirtyWB + s.WriteBypass }

// HitRate returns the read hit rate, or 0 with no reads.
func (s Stats) HitRate() float64 {
	total := s.ReadHits + s.ReadMiss
	if total == 0 {
		return 0
	}
	return float64(s.ReadHits) / float64(total)
}

type entry struct {
	reg   isa.Reg
	valid bool
	dirty bool
	// order is the FIFO insertion stamp or LRU last-use stamp.
	order uint64
}

// Cache is the register file cache.
type Cache struct {
	cfg   Config
	warps [][]entry
	clock uint64
	stats Stats
	// hintMask is the admitted-register bitmask when Config.Hints is
	// set; 0 admits everything (the dynamic ISCA'11 mode).
	hintMask uint64
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	if cfg.EntriesPerWarp <= 0 || cfg.Warps <= 0 {
		panic(fmt.Sprintf("rfc: invalid config %+v", cfg))
	}
	c := &Cache{cfg: cfg, warps: make([][]entry, cfg.Warps)}
	for i := range c.warps {
		c.warps[i] = make([]entry, cfg.EntriesPerWarp)
	}
	for _, r := range cfg.Hints {
		if !r.Valid() {
			panic(fmt.Sprintf("rfc: hint register %s", r))
		}
		c.hintMask |= uint64(1) << uint(r)
	}
	return c
}

// Admits reports whether register r may allocate an entry: always true
// in the dynamic mode, only for hinted registers in the compiler mode.
func (c *Cache) Admits(r isa.Reg) bool {
	return c.hintMask == 0 || c.hintMask&(uint64(1)<<uint(r)) != 0
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated event counts.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (contents are kept).
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) slot(warp int) []entry {
	if warp < 0 || warp >= c.cfg.Warps {
		panic(fmt.Sprintf("rfc: warp %d outside [0,%d)", warp, c.cfg.Warps))
	}
	return c.warps[warp]
}

func (c *Cache) find(es []entry, r isa.Reg) int {
	for i := range es {
		if es[i].valid && es[i].reg == r {
			return i
		}
	}
	return -1
}

// victim returns the index to (re)use: an invalid entry if one exists,
// otherwise the entry with the smallest order stamp.
func (c *Cache) victim(es []entry) int {
	best, bestOrder := -1, ^uint64(0)
	for i := range es {
		if !es[i].valid {
			return i
		}
		if es[i].order < bestOrder {
			best, bestOrder = i, es[i].order
		}
	}
	return best
}

// Read looks register r of warp up in the cache. It returns true on a
// hit. On a miss the value comes from the MRF and, if configured, is
// installed (possibly writing back a dirty victim).
func (c *Cache) Read(warp int, r isa.Reg) bool {
	if !r.Valid() {
		panic(fmt.Sprintf("rfc: read of %s", r))
	}
	if !c.Admits(r) {
		// Compiler-directed bypass: no tag probe is spent on a register
		// statically known never to be cached.
		c.stats.ReadBypass++
		return false
	}
	es := c.slot(warp)
	c.stats.TagChecks++
	c.clock++
	if i := c.find(es, r); i >= 0 {
		c.stats.ReadHits++
		if c.cfg.Policy == LRU {
			es[i].order = c.clock
		}
		return true
	}
	c.stats.ReadMiss++
	if c.cfg.AllocateOnReadMiss {
		c.install(es, r, false)
		c.stats.Fills++
	}
	return false
}

// Write records a result write to register r of warp: it always
// allocates (or updates) the register in the cache and marks it dirty;
// the MRF is only written when the entry is later displaced or flushed.
// When the allocation displaces a dirty entry, Write returns that
// register and true so the caller can issue the MRF writeback. A
// compiler-directed bypass (non-hinted register) returns r itself with
// writeback true: the result goes straight to the MRF.
func (c *Cache) Write(warp int, r isa.Reg) (victim isa.Reg, writeback bool) {
	if !r.Valid() {
		panic(fmt.Sprintf("rfc: write of %s", r))
	}
	if !c.Admits(r) {
		c.stats.WriteBypass++
		return r, true
	}
	es := c.slot(warp)
	c.stats.TagChecks++
	c.stats.Writes++
	c.clock++
	if i := c.find(es, r); i >= 0 {
		es[i].dirty = true
		if c.cfg.Policy == LRU {
			es[i].order = c.clock
		}
		return isa.RegNone, false
	}
	return c.install(es, r, true)
}

func (c *Cache) install(es []entry, r isa.Reg, dirty bool) (victim isa.Reg, writeback bool) {
	v := c.victim(es)
	victim, writeback = isa.RegNone, false
	if es[v].valid {
		c.stats.Evictions++
		if es[v].dirty {
			c.stats.DirtyWB++
			victim, writeback = es[v].reg, true
		}
	}
	es[v] = entry{reg: r, valid: true, dirty: dirty, order: c.clock}
	return victim, writeback
}

// FlushWarp writes back the warp's dirty entries and invalidates all of
// them — the two-level scheduler calls this when the warp is demoted
// from the active pool. It appends the registers written back to the MRF
// to dst and returns the extended slice, so a caller that passes the same
// buffer each time flushes without allocating.
func (c *Cache) FlushWarp(warp int, dst []isa.Reg) []isa.Reg {
	es := c.slot(warp)
	n := len(dst)
	for i := range es {
		if es[i].valid && es[i].dirty {
			dst = append(dst, es[i].reg)
		}
		es[i] = entry{}
	}
	c.stats.Flushes++
	c.stats.DirtyWB += uint64(len(dst) - n)
	return dst
}

// ValidEntries returns the number of valid entries for a warp (for tests
// and occupancy statistics).
func (c *Cache) ValidEntries(warp int) int {
	n := 0
	for _, e := range c.slot(warp) {
		if e.valid {
			n++
		}
	}
	return n
}

// Contains reports whether register r of warp is currently cached.
func (c *Cache) Contains(warp int, r isa.Reg) bool {
	return c.find(c.slot(warp), r) >= 0
}
