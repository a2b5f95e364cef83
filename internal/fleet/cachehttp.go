package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"

	"pilotrf/internal/jobs"
	"pilotrf/internal/telemetry"
)

// httpBackend is a jobs.Backend over the coordinator's
// /v1/fleet/cache/{key} endpoints, so every worker shares one
// content-addressed store: a golden snapshot computed by any worker is
// a hit for all of them, and a restarted worker resumes warm.
//
// Reads re-verify envelope integrity (jobs.ValidateEnvelope) before
// handing bytes to the Cache — a truncated or tampered response over
// the wire degrades to a miss, never a crash. Writes are best-effort by
// contract: after the retry budget they are dropped and counted
// (fleet_cache_put_dropped), because the coordinator persists arriving
// results itself and a transient coordinator outage must not fail the
// worker's cell.
type httpBackend struct {
	link Link
	log  *slog.Logger

	cGets    *telemetry.Counter
	cHits    *telemetry.Counter
	cCorrupt *telemetry.Counter
	cPuts    *telemetry.Counter
	cDropped *telemetry.Counter
}

// newRemoteCache returns a jobs.Cache whose storage is the
// coordinator's remote envelope store, reached over the worker's link;
// its retries count in fleet_cache_retries.
func newRemoteCache(l Link, reg *telemetry.Registry, log *slog.Logger) (*jobs.Cache, error) {
	l.retries = reg.Counter("fleet_cache_retries")
	return jobs.NewCache(&httpBackend{
		link:     l,
		log:      log,
		cGets:    reg.Counter("fleet_cache_gets"),
		cHits:    reg.Counter("fleet_cache_hits"),
		cCorrupt: reg.Counter("fleet_cache_corrupt"),
		cPuts:    reg.Counter("fleet_cache_puts"),
		cDropped: reg.Counter("fleet_cache_put_dropped"),
	})
}

// Load implements jobs.Backend. A 404 is an immediate miss (no retry —
// absence is an answer); transport errors and 5xx retry under the
// policy and then report a miss. The envelope is integrity-verified
// before it is returned.
func (b *httpBackend) Load(hexKey string) ([]byte, error) {
	if !jobs.ValidHexKey(hexKey) {
		return nil, fmt.Errorf("fleet: bad cache key %q", hexKey)
	}
	b.cGets.Inc()
	buf, _, err := b.link.Do(context.TODO(), http.MethodGet, "/v1/fleet/cache/"+hexKey, nil)
	if err != nil {
		return nil, err
	}
	if len(buf) > maxWireBytes {
		return nil, fmt.Errorf("fleet: cache entry %s exceeds %d bytes", hexKey, maxWireBytes)
	}
	// Integrity re-verification on read: a torn proxy response or a
	// coordinator serving a corrupted file is a miss here, not a payload.
	if err := jobs.ValidateEnvelope(hexKey, buf); err != nil {
		b.cCorrupt.Inc()
		b.log.Warn("remote cache entry corrupt", "key", hexKey, "error", err.Error())
		return nil, err
	}
	b.cHits.Inc()
	return buf, nil
}

// Store implements jobs.Backend, best-effort: retries under the policy,
// then drops the write with a counter and a log line instead of failing
// the caller — the coordinator re-persists results on arrival, so a
// dropped Put costs warm-cache sharing, not correctness.
func (b *httpBackend) Store(hexKey string, envelope []byte) error {
	if !jobs.ValidHexKey(hexKey) {
		return fmt.Errorf("fleet: bad cache key %q", hexKey)
	}
	if _, _, err := b.link.Do(context.TODO(), http.MethodPut, "/v1/fleet/cache/"+hexKey, envelope); err != nil {
		b.cDropped.Inc()
		b.log.Warn("remote cache put dropped", "key", hexKey, "error", err.Error())
		return nil
	}
	b.cPuts.Inc()
	return nil
}
