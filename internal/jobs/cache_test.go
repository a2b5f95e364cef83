package jobs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	Name   string `json:"name"`
	Cycles int64  `json:"cycles"`
}

func testKey(version string) Key {
	return NewKey().
		Field("schema", version).
		Field("design", "part-adaptive").
		Field("workload", "sgemm").
		Float("scale", 0.05).
		Int("sms", 2).
		Uint("seed", 42).
		Sum()
}

// TestKeyDeterminismAndSensitivity: equal inputs hash equal; any single
// field change — including a schema version bump — changes the key.
func TestKeyDeterminismAndSensitivity(t *testing.T) {
	base := testKey("v1")
	if again := testKey("v1"); again != base {
		t.Fatal("identical inputs produced different keys")
	}
	variants := []Key{
		testKey("v2"), // version bump invalidates
		NewKey().Field("schema", "v1").Field("design", "part").Float("scale", 0.05).Int("sms", 2).Uint("seed", 42).Sum(),
		NewKey().Field("schema", "v1").Field("design", "part-adaptive").Float("scale", 0.05).Int("sms", 2).Uint("seed", 43).Sum(),
	}
	for i, v := range variants {
		if v.Hex() == base.Hex() {
			t.Errorf("variant %d collides with base key", i)
		}
	}
	if len(base.Hex()) != 16 {
		t.Errorf("key hex %q not 16 digits", base.Hex())
	}
	if !strings.Contains(base.Preimage(), "workload=sgemm") {
		t.Errorf("preimage %q lost a field", base.Preimage())
	}
}

// TestKeyFieldsMatchFmt: the integer and float fields and the hex key
// (the cache file name) are byte-identical to their fmt forms (%d, %g,
// %016x), so every preimage and file name stays what it was when they
// were built with fmt.
func TestKeyFieldsMatchFmt(t *testing.T) {
	same := func(what string, got, want Key) {
		t.Helper()
		if got.Preimage() != want.Preimage() || got.Hex() != want.Hex() {
			t.Errorf("%s: preimage %q key %s, want %q key %s", what, got.Preimage(), got.Hex(), want.Preimage(), want.Hex())
		}
	}
	for _, v := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 42} {
		same(fmt.Sprint("Int ", v), NewKey().Int("n", v).Sum(), NewKey().Field("n", fmt.Sprintf("%d", v)).Sum())
	}
	for _, v := range []uint64{0, 1, math.MaxUint64, 42} {
		same(fmt.Sprint("Uint ", v), NewKey().Uint("n", v).Sum(), NewKey().Field("n", fmt.Sprintf("%d", v)).Sum())
	}
	for _, v := range []float64{0, 1, -1, 0.05, 0.02, 2e-11, 1e21, 1e-7, 1.5, 1e6, math.Inf(1), math.NaN()} {
		same(fmt.Sprint("Float ", v), NewKey().Float("x", v).Sum(), NewKey().Field("x", fmt.Sprintf("%g", v)).Sum())
	}
	for _, v := range []uint64{0, 1, 0xf, 0x10, 0xdeadbeef, math.MaxUint64, testKey("v1").sum} {
		if got, want := (Key{sum: v}).Hex(), fmt.Sprintf("%016x", v); got != want {
			t.Errorf("Hex(%d) = %s, want %s", v, got, want)
		}
	}
}

// TestCacheRoundTrip: Put then Get returns the payload; a different key
// misses; stats track both.
func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("v1")
	want := payload{Name: "sgemm", Cycles: 123456}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !c.Get(key, &got) {
		t.Fatal("fresh entry missed")
	}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if c.Get(testKey("v2"), &got) {
		t.Fatal("version-bumped key hit a v1 entry")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 put", st)
	}
}

// TestCacheCorruptionTolerance: every corrupted-entry shape loads as a
// miss (recompute), never as an error or a wrong payload.
func TestCacheCorruptionTolerance(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("v1")
	if err := c.Put(key, payload{Name: "ok"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.Hex()+".json")

	corruptions := map[string]string{
		"truncated":         `{"schema": "pilotrf-jobcache/v1", "key": "`,
		"not json":          "hello\x00world",
		"empty":             "",
		"schema mismatch":   `{"schema": "pilotrf-jobcache/v999", "key": "` + key.Hex() + `", "preimage": ` + jsonString(key.Preimage()) + `, "payload": {"name":"evil"}}`,
		"key mismatch":      `{"schema": "pilotrf-jobcache/v1", "key": "` + testKey("v2").Hex() + `", "preimage": ` + jsonString(key.Preimage()) + `, "payload": {"name":"evil"}}`,
		"preimage mismatch": `{"schema": "pilotrf-jobcache/v1", "key": "` + key.Hex() + `", "preimage": ` + jsonString(testKey("v2").Preimage()) + `, "payload": {"name":"evil"}}`,
		"payload mismatch":  `{"schema": "pilotrf-jobcache/v1", "key": "` + key.Hex() + `", "preimage": ` + jsonString(key.Preimage()) + `, "payload": [1,2,3]}`,
		"payload type":      `{"schema": "pilotrf-jobcache/v1", "key": "` + key.Hex() + `", "preimage": ` + jsonString(key.Preimage()) + `, "payload": {"name":"ok","cycles":"many"}}`,
	}
	for name, body := range corruptions {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		if c.Get(key, &got) {
			t.Errorf("%s: corrupted entry returned a hit (%+v)", name, got)
		}
	}
	if st := c.Stats(); st.Corrupt != uint64(len(corruptions)) {
		t.Errorf("corrupt count %d, want %d", st.Corrupt, len(corruptions))
	}

	// Recompute-and-overwrite heals the entry.
	if err := c.Put(key, payload{Name: "healed"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !c.Get(key, &got) || got.Name != "healed" {
		t.Fatalf("healed entry not readable: %+v", got)
	}
}

// TestCacheEnvelopeWithoutPayload: Get decodes the payload straight into
// out, so an envelope whose payload is null or missing hits and leaves
// out as it was; every caller checks what it read and recomputes such an
// entry. ValidateEnvelope, the fleet's integrity gate, still refuses a
// missing payload. Each case reads through its own Cache, so neither is
// answered from the other's in-process tier.
func TestCacheEnvelopeWithoutPayload(t *testing.T) {
	key := testKey("v1")
	head := `{"schema": "pilotrf-jobcache/v1", "key": "` + key.Hex() + `", "preimage": ` + jsonString(key.Preimage())
	for name, tc := range map[string]struct {
		body  string
		valid bool
	}{
		"null payload":    {head + `, "payload": null}`, true},
		"missing payload": {head + `}`, false},
	} {
		dir := filepath.Join(t.TempDir(), "cache")
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key.Hex()+".json"), []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		want := payload{Name: "before"}
		got := want
		if !c.Get(key, &got) || got != want {
			t.Errorf("%s: want a hit that leaves out as it was, got %+v", name, got)
		}
		if err := ValidateEnvelope(key.Hex(), []byte(tc.body)); (err == nil) != tc.valid {
			t.Errorf("%s: ValidateEnvelope = %v, want valid %v", name, err, tc.valid)
		}
		if st := c.Stats(); st.Hits != 1 || st.Misses != 0 || st.Corrupt != 0 {
			t.Errorf("%s: stats %+v, want 1 hit and no misses", name, st)
		}
	}
}

// TestCachePutBytes pins the envelope Put writes: an indented object
// holding the schema, the key, the preimage and the payload, in that
// order, and a final newline.
func TestCachePutBytes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("v1")
	if err := c.Put(key, payload{Name: "<sgemm>", Cycles: 123456}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, key.Hex()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	want := "{\n" +
		"  \"schema\": \"pilotrf-jobcache/v1\",\n" +
		"  \"key\": \"" + key.Hex() + "\",\n" +
		"  \"preimage\": " + jsonString(key.Preimage()) + ",\n" +
		"  \"payload\": {\n" +
		"    \"name\": \"\\u003csgemm\\u003e\",\n" +
		"    \"cycles\": 123456\n" +
		"  }\n" +
		"}\n"
	if string(got) != want {
		t.Fatalf("Put wrote\n%s\nwant\n%s", got, want)
	}
	if err := ValidateEnvelope(key.Hex(), got); err != nil {
		t.Fatal(err)
	}
}

// TestCacheGetNeedsPointer: Get decodes into out itself, so an out that
// is not a non-nil pointer is a corrupt miss even on a valid entry.
func TestCacheGetNeedsPointer(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("v1")
	want := payload{Name: "sgemm", Cycles: 7}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	for name, out := range map[string]interface{}{
		"struct":      got,
		"nil pointer": (*payload)(nil),
		"nil":         nil,
	} {
		if c.Get(key, out) {
			t.Errorf("%s out: hit", name)
		}
	}
	if st := c.Stats(); st.Misses != 3 || st.Corrupt != 3 {
		t.Errorf("stats %+v, want 3 misses, all corrupt", st)
	}
	if !c.Get(key, &got) || got != want {
		t.Fatalf("pointer out: got %+v, want %+v", got, want)
	}
}

// TestCacheCollisionDetected: an entry whose stored preimage differs
// from the requested key's — the on-disk shape of an FNV collision — is
// a miss, not a silent wrong answer.
func TestCacheCollisionDetected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("v1")
	// Forge a colliding entry: same hash file, different preimage.
	ent := map[string]interface{}{
		"schema":   CacheSchema,
		"key":      key.Hex(),
		"preimage": "some-other-job\x00",
		"payload":  payload{Name: "collider", Cycles: 999},
	}
	buf, err := json.Marshal(ent)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key.Hex()+".json"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if c.Get(key, &got) {
		t.Fatalf("colliding entry returned a hit: %+v", got)
	}
	if st := c.Stats(); st.Corrupt != 1 {
		t.Errorf("collision not counted as corrupt: %+v", st)
	}
}

// TestNilCacheIsNoOp: a nil *Cache disables caching without branches at
// call sites.
func TestNilCacheIsNoOp(t *testing.T) {
	var c *Cache
	if c.Get(testKey("v1"), &payload{}) {
		t.Error("nil cache hit")
	}
	if err := c.Put(testKey("v1"), payload{}); err != nil {
		t.Errorf("nil cache Put errored: %v", err)
	}
	if c.Dir() != "" || c.Stats() != (CacheStats{}) {
		t.Error("nil cache not inert")
	}
}

// TestOpenCacheCreatesDir: OpenCache mkdir -p's nested paths and rejects
// the empty string.
func TestOpenCacheCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "c")
	if _, err := OpenCache(dir); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("cache dir not created: %v", err)
	}
	if _, err := OpenCache(""); err == nil {
		t.Error("empty cache dir accepted")
	}
}

// mapBackend is an in-memory Backend. load, when set, runs inside every
// Load after the bytes are read and before they are returned.
type mapBackend struct {
	mu   sync.Mutex
	m    map[string][]byte
	load func(hexKey string)
}

func (b *mapBackend) Load(hexKey string) ([]byte, error) {
	b.mu.Lock()
	buf, ok := b.m[hexKey]
	hook := b.load
	b.mu.Unlock()
	if hook != nil {
		hook(hexKey)
	}
	if !ok {
		return nil, os.ErrNotExist
	}
	return buf, nil
}

func (b *mapBackend) Store(hexKey string, envelope []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m == nil {
		b.m = map[string][]byte{}
	}
	b.m[hexKey] = append([]byte(nil), envelope...)
	return nil
}

// TestCacheMemoryTier pins the in-process tier's contract: a validated
// entry is served from memory whatever later happens to the store
// behind this Cache, while a fresh Cache over the store sees the store;
// writes through the Cache are read back; tier hits count and still
// need a pointer out; and the tier stays under its cap.
func TestCacheMemoryTier(t *testing.T) {
	if memTierCap > 4<<20 {
		t.Fatalf("memTierCap %d, want at most 4 MiB", memTierCap)
	}
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("v1")
	path := filepath.Join(dir, key.Hex()+".json")
	first := payload{Name: "first", Cycles: 1}
	if err := c.Put(key, first); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !c.Get(key, &got) || got != first {
		t.Fatalf("first read: %+v", got)
	}

	// Overwriting or deleting the file leaves this Cache's answer as it
	// was; a fresh Cache over the directory sees the store.
	other, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Put(key, payload{Name: "overwritten"}); err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"overwritten", "deleted"} {
		if step == "deleted" {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
		got = payload{}
		if !c.Get(key, &got) || got != first {
			t.Errorf("%s file: this Cache read %+v, want %+v from memory", step, got, first)
		}
	}
	fresh, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Get(key, &got) {
		t.Errorf("fresh Cache hit a deleted entry: %+v", got)
	}
	if err := os.WriteFile(path, []byte(`{"schema": "pilotrf-jobcache/v1", "key": "`), 0o644); err != nil {
		t.Fatal(err)
	}
	if fresh.Get(key, &got) {
		t.Errorf("fresh Cache hit a torn entry: %+v", got)
	}
	if st := fresh.Stats(); st.Misses != 2 || st.Corrupt != 1 {
		t.Errorf("fresh Cache stats %+v, want 2 misses, 1 corrupt", st)
	}

	// A Put or StoreRaw through this Cache is what its next Get reads.
	second := payload{Name: "second", Cycles: 2}
	if err := c.Put(key, second); err != nil {
		t.Fatal(err)
	}
	if !c.Get(key, &got) || got != second {
		t.Errorf("after Put: read %+v, want %+v", got, second)
	}
	third := payload{Name: "third", Cycles: 3}
	env, err := json.Marshal(cacheEntry{Schema: CacheSchema, Key: key.Hex(), Preimage: key.Preimage(), Payload: third})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreRaw(key.Hex(), env); err != nil {
		t.Fatal(err)
	}
	if !c.Get(key, &got) || got != third {
		t.Errorf("after StoreRaw: read %+v, want %+v", got, third)
	}

	// The last Get came from the backend and kept the entry: the next
	// one is a tier hit, counted as a hit. An out that is not a non-nil
	// pointer still misses as corrupt.
	if _, ok := c.mem[key.sum]; !ok {
		t.Fatal("validated entry not kept in memory")
	}
	before := c.Stats()
	if !c.Get(key, &got) || got != third {
		t.Errorf("tier hit: read %+v", got)
	}
	if c.Get(key, got) || c.Get(key, (*payload)(nil)) {
		t.Error("tier hit into a non-pointer out")
	}
	if st := c.Stats(); st.Hits != before.Hits+1 || st.Misses != before.Misses+2 || st.Corrupt != before.Corrupt+2 {
		t.Errorf("stats %+v after %+v, want 1 more hit and 2 more corrupt misses", st, before)
	}

	// A key whose hash collides with a kept entry's is not served from
	// memory: the backend's envelope holds the other preimage, so it is
	// a corrupt miss.
	collider := Key{sum: key.sum, pre: "some-other-job\x00"}
	before = c.Stats()
	if c.Get(collider, &got) {
		t.Errorf("colliding key hit the kept entry: %+v", got)
	}
	if st := c.Stats(); st.Corrupt != before.Corrupt+1 {
		t.Errorf("colliding key: stats %+v after %+v, want 1 more corrupt miss", st, before)
	}

	// A write that lands while a Get reads the backend keeps that Get's
	// bytes out of memory, so the next Get reads the write.
	be := &mapBackend{}
	racy, err := NewCache(be)
	if err != nil {
		t.Fatal(err)
	}
	if err := racy.Put(key, first); err != nil {
		t.Fatal(err)
	}
	be.load = func(string) {
		be.load = nil
		if err := racy.Put(key, second); err != nil {
			t.Error(err)
		}
	}
	if !racy.Get(key, &got) || got != first {
		t.Errorf("racing read: %+v, want the bytes it loaded", got)
	}
	if !racy.Get(key, &got) || got != second {
		t.Errorf("read after the racing write: %+v, want %+v", got, second)
	}

	// A few thousand distinct ~1 KB entries overflow the cap; the tier
	// evicts to stay under it and its byte count matches its entries.
	capped, err := NewCache(&mapBackend{})
	if err != nil {
		t.Fatal(err)
	}
	big := payload{Name: strings.Repeat("x", 1000)}
	for i := 0; i < 5000; i++ {
		k := NewKey().Field("kind", "cap").Int("i", int64(i)).Sum()
		big.Cycles = int64(i)
		if err := capped.Put(k, big); err != nil {
			t.Fatal(err)
		}
		if !capped.Get(k, &got) || got != big {
			t.Fatalf("entry %d: read %+v", i, got)
		}
	}
	held := 0
	for _, e := range capped.mem {
		held += e.size()
	}
	if held != capped.memBytes || held > memTierCap || len(capped.mem) == 0 {
		t.Errorf("tier holds %d bytes in %d entries (counted %d), cap %d", held, len(capped.mem), capped.memBytes, memTierCap)
	}
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
