package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"

	"pilotrf/internal/telemetry"
)

// CacheSchema versions the on-disk entry envelope; bump on incompatible
// change and every existing entry silently becomes a miss.
const CacheSchema = "pilotrf-jobcache/v1"

// Key is a content-addressed job identity: an FNV-1a 64-bit hash over a
// canonical preimage string built from every input the job's result
// depends on (design configuration, workload, seeds, schema versions).
// The preimage rides along so the cache can reject hash collisions and
// callers can log what a key means.
type Key struct {
	sum uint64
	pre string
}

// Hex returns the 16-digit lowercase hash, the cache's file stem.
func (k Key) Hex() string { return fmt.Sprintf("%016x", k.sum) }

// Preimage returns the canonical string the key hashes.
func (k Key) Preimage() string { return k.pre }

// String implements fmt.Stringer.
func (k Key) String() string { return k.Hex() }

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// KeyBuilder accumulates named fields into a canonical preimage and its
// FNV-1a hash. Field order is significant: callers must always build a
// given key kind with the same field sequence, which also means adding a
// field (a version bump, a new input) changes every key — stale entries
// then miss instead of poisoning results.
type KeyBuilder struct {
	sum uint64
	pre []byte
}

// NewKey starts a key.
func NewKey() *KeyBuilder {
	return &KeyBuilder{sum: fnvOffset}
}

// Field appends one name=value pair. Name/value are separated from other
// fields by a NUL, which cannot appear in the flag-derived values the
// keys are built from, so distinct field lists never collide textually.
func (b *KeyBuilder) Field(name, value string) *KeyBuilder {
	b.write(name)
	b.write("=")
	b.write(value)
	b.write("\x00")
	return b
}

// Uint appends an unsigned integer field.
func (b *KeyBuilder) Uint(name string, v uint64) *KeyBuilder {
	return b.Field(name, fmt.Sprintf("%d", v))
}

// Int appends a signed integer field.
func (b *KeyBuilder) Int(name string, v int64) *KeyBuilder {
	return b.Field(name, fmt.Sprintf("%d", v))
}

// Float appends a float field in the shortest round-trippable form.
func (b *KeyBuilder) Float(name string, v float64) *KeyBuilder {
	return b.Field(name, fmt.Sprintf("%g", v))
}

func (b *KeyBuilder) write(s string) {
	for i := 0; i < len(s); i++ {
		b.sum ^= uint64(s[i])
		b.sum *= fnvPrime
	}
	b.pre = append(b.pre, s...)
}

// Sum finalizes the key.
func (b *KeyBuilder) Sum() Key {
	return Key{sum: b.sum, pre: string(b.pre)}
}

// CacheStats counts cache traffic since Open.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Corrupt uint64 `json:"corrupt"`
	Puts    uint64 `json:"puts"`
}

// Cache is a content-addressed result store over a pluggable Backend:
// by default one JSON file per key under a directory, written atomically
// (temp file + rename) so an interrupted campaign never leaves a
// truncated entry that a resume would trip over; the fleet substitutes
// an HTTP backend so workers share one coordinator-side store.
//
// Loads are corruption-tolerant by contract: an unreadable entry, a
// schema or preimage mismatch, or an undecodable payload makes Get
// report a miss (counted in Stats().Corrupt) — the caller recomputes and
// overwrites, it never crashes. A nil *Cache is a valid no-op cache, so
// call sites need no "-cache-dir set?" branches.
type Cache struct {
	dir string // "" unless backed by a directory
	be  Backend

	mu    sync.Mutex
	stats CacheStats

	// Telemetry mirrors of stats (nil until Metrics attaches them).
	cHits    *telemetry.Counter
	cMisses  *telemetry.Counter
	cCorrupt *telemetry.Counter
	cPuts    *telemetry.Counter
}

// cacheEntry is the on-disk envelope. Storing the full preimage makes
// hash collisions detectable: a Get whose preimage disagrees with the
// stored one is treated as a miss rather than returning the colliding
// job's payload. Put encodes the caller's value straight from Payload,
// and Get decodes straight into the caller's out through it.
type cacheEntry struct {
	Schema   string      `json:"schema"`
	Key      string      `json:"key"`
	Preimage string      `json:"preimage"`
	Payload  interface{} `json:"payload"`
}

// OpenCache creates dir if needed and returns the cache over it.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating cache dir: %w", err)
	}
	return &Cache{dir: dir, be: dirBackend{dir: dir}}, nil
}

// NewCache returns a cache over an arbitrary backend (the fleet's
// remote HTTP store). The envelope encoding and the integrity checks
// are identical to the directory cache's.
func NewCache(be Backend) (*Cache, error) {
	if be == nil {
		return nil, fmt.Errorf("jobs: nil cache backend")
	}
	return &Cache{be: be}, nil
}

// Dir returns the cache directory ("" for a nil cache or a non-directory
// backend).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Get loads the entry for key into out (a JSON-decodable pointer),
// reporting whether it hit. Every failure mode — missing file, torn
// write, foreign JSON, schema bump, hash collision, payload mismatch,
// an out that is not a non-nil pointer — is a miss, never an error. The
// envelope and its payload are decoded in one pass, so on a miss out may
// hold part or all of the rejected entry's payload, and an envelope with
// no payload field (Put never writes one) hits and leaves out as it was,
// as a null payload does.
func (c *Cache) Get(key Key, out interface{}) bool {
	if c == nil {
		return false
	}
	buf, err := c.be.Load(key.Hex())
	if err != nil {
		c.count(func(s *CacheStats) { s.Misses++ })
		return false
	}
	// Decoding into an interface that holds a non-nil pointer fills the
	// pointee; any other out would be replaced, not filled.
	ent := cacheEntry{Payload: out}
	if v := reflect.ValueOf(out); v.Kind() != reflect.Pointer || v.IsNil() ||
		json.Unmarshal(buf, &ent) != nil ||
		ent.Schema != CacheSchema || ent.Key != key.Hex() || ent.Preimage != key.Preimage() {
		c.count(func(s *CacheStats) { s.Misses++; s.Corrupt++ })
		return false
	}
	c.count(func(s *CacheStats) { s.Hits++ })
	return true
}

// Put stores v under key atomically. Unlike Get, write failures are real
// errors: a cache the operator asked for that cannot persist anything
// should be heard about.
func (c *Cache) Put(key Key, v interface{}) error {
	if c == nil {
		return nil
	}
	ent := cacheEntry{Schema: CacheSchema, Key: key.Hex(), Preimage: key.Preimage(), Payload: v}
	buf, err := json.MarshalIndent(ent, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encoding cache entry: %w", err)
	}
	buf = append(buf, '\n')
	if err := c.be.Store(key.Hex(), buf); err != nil {
		return err
	}
	c.count(func(s *CacheStats) { s.Puts++ })
	return nil
}

// LoadRaw returns the raw envelope bytes stored under a 16-hex key
// stem, validated (ValidateEnvelope) before serving — the read side of
// the fleet coordinator's remote-cache endpoint. Any failure, including
// a corrupt or mismatched envelope, reports a miss; serving a bad
// envelope to a worker would only turn into a miss there anyway, so it
// is cut off at the source. Safe on a nil cache.
func (c *Cache) LoadRaw(hexKey string) ([]byte, bool) {
	if c == nil || !ValidHexKey(hexKey) {
		return nil, false
	}
	buf, err := c.be.Load(hexKey)
	if err != nil {
		c.count(func(s *CacheStats) { s.Misses++ })
		return nil, false
	}
	if err := ValidateEnvelope(hexKey, buf); err != nil {
		c.count(func(s *CacheStats) { s.Misses++; s.Corrupt++ })
		return nil, false
	}
	c.count(func(s *CacheStats) { s.Hits++ })
	return buf, true
}

// StoreRaw persists envelope bytes under a 16-hex key stem after
// validating them — the write side of the fleet coordinator's
// remote-cache endpoint. Unlike Get's tolerant reads, a bad envelope is
// an error: accepting it would plant a guaranteed future miss (or worse)
// in the store. Safe on a nil cache (no-op).
func (c *Cache) StoreRaw(hexKey string, data []byte) error {
	if c == nil {
		return nil
	}
	if !ValidHexKey(hexKey) {
		return fmt.Errorf("jobs: bad cache key %q", hexKey)
	}
	if err := ValidateEnvelope(hexKey, data); err != nil {
		return err
	}
	if err := c.be.Store(hexKey, data); err != nil {
		return err
	}
	c.count(func(s *CacheStats) { s.Puts++ })
	return nil
}

// Stats returns the traffic counters (zero for a nil cache).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Metrics registers the cache's traffic counters (cache_hits,
// cache_misses, cache_corrupt, cache_puts) in reg, so a live telemetry
// endpoint — pilotserve /metrics — exposes warm-resume effectiveness.
// Counters registered mid-life start from the registration point; call
// right after OpenCache. Safe on a nil cache or nil registry.
func (c *Cache) Metrics(reg *telemetry.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.mu.Lock()
	c.cHits = reg.Counter("cache_hits")
	c.cMisses = reg.Counter("cache_misses")
	c.cCorrupt = reg.Counter("cache_corrupt")
	c.cPuts = reg.Counter("cache_puts")
	c.mu.Unlock()
}

func (c *Cache) count(f func(*CacheStats)) {
	c.mu.Lock()
	before := c.stats
	f(&c.stats)
	after := c.stats
	hits, misses := c.cHits, c.cMisses
	corrupt, puts := c.cCorrupt, c.cPuts
	c.mu.Unlock()
	if hits == nil {
		return
	}
	hits.Add(after.Hits - before.Hits)
	misses.Add(after.Misses - before.Misses)
	corrupt.Add(after.Corrupt - before.Corrupt)
	puts.Add(after.Puts - before.Puts)
}
