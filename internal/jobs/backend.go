package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Backend is the storage layer behind a Cache: it moves opaque
// pilotrf-jobcache/v1 envelope bytes keyed by the 16-hex key stem. The
// Cache owns envelope encoding and integrity verification; a backend
// only has to store and retrieve bytes, which is what makes a remote
// HTTP backend (internal/fleet) interchangeable with the local
// directory.
//
// Load errors of any kind are cache misses by contract — the Cache
// recomputes, it never crashes. Store errors are surfaced (a local
// cache the operator asked for that cannot persist should be heard
// about), except where a backend documents best-effort semantics (the
// fleet's remote backend degrades lost Puts to a counter, because the
// coordinator re-persists results itself).
type Backend interface {
	// Load returns the raw envelope bytes for the 16-hex key stem, or
	// any error to signal a miss.
	Load(hexKey string) ([]byte, error)
	// Store persists the raw envelope bytes under the 16-hex key stem.
	Store(hexKey string, envelope []byte) error
}

// ValidHexKey reports whether s is a well-formed cache key stem: exactly
// 16 lowercase hex digits. Backends that derive file paths or URLs from
// the stem gate on it so a hostile or corrupted key cannot escape the
// store's namespace.
func ValidHexKey(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// dirBackend is the default backend: one JSON file per key under a
// directory, written atomically (temp file + rename) so an interrupted
// campaign never leaves a truncated entry that a resume would trip
// over.
type dirBackend struct {
	dir string
}

func (d dirBackend) path(hexKey string) string {
	return filepath.Join(d.dir, hexKey+".json")
}

// Load implements Backend.
func (d dirBackend) Load(hexKey string) ([]byte, error) {
	if !ValidHexKey(hexKey) {
		return nil, fmt.Errorf("jobs: bad cache key %q", hexKey)
	}
	return os.ReadFile(d.path(hexKey))
}

// Store implements Backend via temp file + rename.
func (d dirBackend) Store(hexKey string, envelope []byte) error {
	if !ValidHexKey(hexKey) {
		return fmt.Errorf("jobs: bad cache key %q", hexKey)
	}
	tmp, err := os.CreateTemp(d.dir, hexKey+".tmp-*")
	if err != nil {
		return fmt.Errorf("jobs: cache write: %w", err)
	}
	if _, err := tmp.Write(envelope); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: cache write: %w", err)
	}
	if err := os.Rename(tmp.Name(), d.path(hexKey)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: cache write: %w", err)
	}
	return nil
}

// ValidateEnvelope checks that data is a structurally sound
// pilotrf-jobcache/v1 envelope for the given 16-hex key stem: the
// schema matches, the recorded key equals hexKey, and — the part a
// plain JSON decode cannot promise — the stored preimage actually
// hashes to the key, so a truncated, substituted, or bit-flipped
// envelope is caught before it is served or stored. This is the
// integrity gate both ends of the fleet's remote cache run on every
// round-trip; the full preimage comparison still happens in Cache.Get,
// which knows the expected preimage, not just its hash.
func ValidateEnvelope(hexKey string, data []byte) error {
	var payload json.RawMessage
	ent := cacheEntry{Payload: &payload}
	if err := json.Unmarshal(data, &ent); err != nil {
		return fmt.Errorf("jobs: envelope: %w", err)
	}
	if ent.Schema != CacheSchema {
		return fmt.Errorf("jobs: envelope: schema %q, want %q", ent.Schema, CacheSchema)
	}
	if ent.Key != hexKey {
		return fmt.Errorf("jobs: envelope: key %q does not match %q", ent.Key, hexKey)
	}
	h := uint64(fnvOffset)
	for i := 0; i < len(ent.Preimage); i++ {
		h ^= uint64(ent.Preimage[i])
		h *= fnvPrime
	}
	if got := hex16(h); got != hexKey {
		return fmt.Errorf("jobs: envelope: preimage hashes to %s, not %s", got, hexKey)
	}
	// A null payload sets Payload to nil; an absent one leaves payload
	// empty.
	if ent.Payload != nil && len(payload) == 0 {
		return fmt.Errorf("jobs: envelope: empty payload")
	}
	return nil
}
