package jobs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
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
// missing payload.
func TestCacheEnvelopeWithoutPayload(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("v1")
	path := filepath.Join(dir, key.Hex()+".json")
	head := `{"schema": "pilotrf-jobcache/v1", "key": "` + key.Hex() + `", "preimage": ` + jsonString(key.Preimage())
	for name, tc := range map[string]struct {
		body  string
		valid bool
	}{
		"null payload":    {head + `, "payload": null}`, true},
		"missing payload": {head + `}`, false},
	} {
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
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
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 0 || st.Corrupt != 0 {
		t.Errorf("stats %+v, want 2 hits and no misses", st)
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

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}
