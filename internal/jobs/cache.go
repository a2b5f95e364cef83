package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
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
func (k Key) Hex() string { return hex16(k.sum) }

// hex16 formats v as 16 zero-padded lowercase hex digits, as %016x does.
func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

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
	var buf [24]byte
	return b.Field(name, string(strconv.AppendUint(buf[:0], v, 10)))
}

// Int appends a signed integer field.
func (b *KeyBuilder) Int(name string, v int64) *KeyBuilder {
	var buf [24]byte
	return b.Field(name, string(strconv.AppendInt(buf[:0], v, 10)))
}

// Float appends a float field in the shortest round-trippable form
// (%g's).
func (b *KeyBuilder) Float(name string, v float64) *KeyBuilder {
	var buf [32]byte
	return b.Field(name, string(strconv.AppendFloat(buf[:0], v, 'g', -1, 64)))
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
//
// In front of the backend sits a bounded in-process tier. A Get whose
// envelope validates keeps the payload's raw JSON, under the key's hash
// and full preimage, and later Gets of that key decode those bytes into
// out with no backend read and no envelope decode. Put and StoreRaw drop
// the key once the backend write succeeds, so the tier only ever holds
// bytes a read validated, and it holds at most 4 MiB (memTierCap) of
// payloads and preimages. It keeps bytes, not decoded values, so no two
// Gets share a value. The one contract this adds: a Cache serves an
// entry it has validated from memory, so an edit of the store behind it
// is seen by the next Cache opened over that store (a resumed process),
// not by this one. Callers validate what they read either way.
type Cache struct {
	dir string // "" unless backed by a directory
	be  Backend

	mu    sync.Mutex
	stats CacheStats

	// The in-process tier, under mu. memGen rises with every write, so a
	// Get whose backend read raced a write keeps nothing.
	mem      map[uint64]memEntry
	memBytes int
	memGen   uint64

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

// memTierCap bounds the bytes the in-process tier holds: the preimages
// and raw payloads of its entries.
const memTierCap = 4 << 20

// memEntry is one validated payload in the in-process tier.
type memEntry struct {
	pre     string          // the key's full preimage
	payload json.RawMessage // never written once kept; nil if absent
}

func (e memEntry) size() int { return len(e.pre) + len(e.payload) }

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
// an out that is not a non-nil pointer — is a miss, never an error. On a
// miss out may hold part or all of the rejected entry's payload, and an
// envelope with no payload field (Put never writes one) hits and leaves
// out as it was, as a null payload does. A hit from the in-process tier
// counts in Stats like one from the backend.
func (c *Cache) Get(key Key, out interface{}) bool {
	if c == nil {
		return false
	}
	// Decoding into a non-nil pointer fills the pointee; any other out
	// would be replaced, not filled.
	if v := reflect.ValueOf(out); v.Kind() != reflect.Pointer || v.IsNil() {
		c.count(func(s *CacheStats) { s.Misses++; s.Corrupt++ })
		return false
	}
	c.mu.Lock()
	e, inMem := c.mem[key.sum]
	gen := c.memGen
	c.mu.Unlock()
	if inMem && e.pre == key.pre {
		if decodePayload(e.payload, out) != nil {
			c.count(func(s *CacheStats) { s.Misses++; s.Corrupt++ })
			return false
		}
		c.count(func(s *CacheStats) { s.Hits++ })
		return true
	}
	hex := key.Hex()
	buf, err := c.be.Load(hex)
	if err != nil {
		c.count(func(s *CacheStats) { s.Misses++ })
		return false
	}
	var raw json.RawMessage
	ent := cacheEntry{Payload: &raw}
	if json.Unmarshal(buf, &ent) != nil ||
		ent.Schema != CacheSchema || ent.Key != hex || ent.Preimage != key.pre ||
		decodePayload(raw, out) != nil {
		c.count(func(s *CacheStats) { s.Misses++; s.Corrupt++ })
		return false
	}
	c.keep(key, raw, gen)
	c.count(func(s *CacheStats) { s.Hits++ })
	return true
}

// decodePayload decodes a kept payload into out. An absent or null
// payload leaves out as it was.
func decodePayload(raw json.RawMessage, out interface{}) error {
	if raw == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// keep puts a validated payload in the in-process tier unless a write
// has landed since the backend read that returned it (gen), evicting
// arbitrary entries until it fits under memTierCap.
func (c *Cache) keep(key Key, raw json.RawMessage, gen uint64) {
	e := memEntry{pre: key.pre, payload: raw}
	if e.size() > memTierCap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.memGen != gen {
		return
	}
	if c.mem == nil {
		c.mem = make(map[uint64]memEntry)
	}
	if old, ok := c.mem[key.sum]; ok {
		delete(c.mem, key.sum)
		c.memBytes -= old.size()
	}
	for c.memBytes+e.size() > memTierCap {
		for sum, old := range c.mem { // map order: an arbitrary victim
			delete(c.mem, sum)
			c.memBytes -= old.size()
			break
		}
	}
	c.mem[key.sum] = e
	c.memBytes += e.size()
}

// drop removes sum from the in-process tier after a backend write.
func (c *Cache) drop(sum uint64) {
	c.mu.Lock()
	if old, ok := c.mem[sum]; ok {
		delete(c.mem, sum)
		c.memBytes -= old.size()
	}
	c.memGen++
	c.mu.Unlock()
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
	c.drop(key.sum)
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
	sum, _ := strconv.ParseUint(hexKey, 16, 64) // ValidHexKey passed
	c.drop(sum)
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
