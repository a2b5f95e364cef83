package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
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
	base   string // coordinator base URL, no trailing slash
	client *http.Client
	retry  Policy
	log    *slog.Logger

	cGets    *telemetry.Counter
	cHits    *telemetry.Counter
	cCorrupt *telemetry.Counter
	cPuts    *telemetry.Counter
	cDropped *telemetry.Counter
	cRetries *telemetry.Counter
}

// RemoteCacheConfig configures NewRemoteCache.
type RemoteCacheConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Client issues the requests; nil selects http.DefaultClient.
	Client *http.Client
	// Retry is the transport retry policy (shared Backoff helper).
	Retry Policy
	// Reg receives the round-trip counters; nil disables them.
	Reg *telemetry.Registry
	// Log receives structured records; nil discards.
	Log *slog.Logger
}

// NewRemoteCache returns a jobs.Cache whose storage is the
// coordinator's remote envelope store.
func NewRemoteCache(cfg RemoteCacheConfig) (*jobs.Cache, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fleet: remote cache without coordinator URL")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Reg == nil {
		cfg.Reg = telemetry.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewJSONHandler(io.Discard, nil))
	}
	be := &httpBackend{
		base:     trimSlash(cfg.Coordinator),
		client:   cfg.Client,
		retry:    cfg.Retry,
		log:      cfg.Log,
		cGets:    cfg.Reg.Counter("fleet_cache_gets"),
		cHits:    cfg.Reg.Counter("fleet_cache_hits"),
		cCorrupt: cfg.Reg.Counter("fleet_cache_corrupt"),
		cPuts:    cfg.Reg.Counter("fleet_cache_puts"),
		cDropped: cfg.Reg.Counter("fleet_cache_put_dropped"),
		cRetries: cfg.Reg.Counter("fleet_cache_retries"),
	}
	return jobs.NewCache(be)
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

func (b *httpBackend) url(hexKey string) string {
	return b.base + "/v1/fleet/cache/" + hexKey
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
	bo := b.retry.Start()
	for {
		buf, retryable, err := b.loadOnce(hexKey)
		if err == nil {
			b.cHits.Inc()
			return buf, nil
		}
		if !retryable {
			return nil, err
		}
		if serr := bo.Sleep(context.TODO()); serr != nil {
			return nil, fmt.Errorf("%w: %w", serr, err)
		}
		b.cRetries.Inc()
	}
}

func (b *httpBackend) loadOnce(hexKey string) (buf []byte, retryable bool, err error) {
	resp, err := b.client.Get(b.url(hexKey))
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusNotFound:
		return nil, false, fmt.Errorf("fleet: cache miss for %s", hexKey)
	case resp.StatusCode >= 500:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, true, fmt.Errorf("fleet: cache get %s: HTTP %d", hexKey, resp.StatusCode)
	default:
		return nil, false, fmt.Errorf("fleet: cache get %s: HTTP %d", hexKey, resp.StatusCode)
	}
	buf, err = io.ReadAll(io.LimitReader(resp.Body, maxWireBytes+1))
	if err != nil {
		return nil, true, fmt.Errorf("fleet: cache get %s: reading body: %w", hexKey, err)
	}
	if len(buf) > maxWireBytes {
		return nil, false, fmt.Errorf("fleet: cache entry %s exceeds %d bytes", hexKey, maxWireBytes)
	}
	// Integrity re-verification on read: a torn proxy response or a
	// coordinator serving a corrupted file is a miss here, not a payload.
	if err := jobs.ValidateEnvelope(hexKey, buf); err != nil {
		b.cCorrupt.Inc()
		b.log.Warn("remote cache entry corrupt", "key", hexKey, "error", err.Error())
		return nil, false, err
	}
	return buf, false, nil
}

// Store implements jobs.Backend, best-effort: retries under the policy,
// then drops the write with a counter and a log line instead of failing
// the caller — the coordinator re-persists results on arrival, so a
// dropped Put costs warm-cache sharing, not correctness.
func (b *httpBackend) Store(hexKey string, envelope []byte) error {
	if !jobs.ValidHexKey(hexKey) {
		return fmt.Errorf("fleet: bad cache key %q", hexKey)
	}
	bo := b.retry.Start()
	for {
		retryable, err := b.storeOnce(hexKey, envelope)
		if err == nil {
			b.cPuts.Inc()
			return nil
		}
		if retryable && bo.Sleep(context.TODO()) == nil {
			b.cRetries.Inc()
			continue
		}
		b.cDropped.Inc()
		b.log.Warn("remote cache put dropped", "key", hexKey, "error", err.Error())
		return nil
	}
}

func (b *httpBackend) storeOnce(hexKey string, envelope []byte) (retryable bool, err error) {
	req, err := http.NewRequest(http.MethodPut, b.url(hexKey), bytes.NewReader(envelope))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return true, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	switch {
	case resp.StatusCode == http.StatusNoContent || resp.StatusCode == http.StatusOK:
		return false, nil
	case resp.StatusCode >= 500:
		return true, fmt.Errorf("fleet: cache put %s: HTTP %d", hexKey, resp.StatusCode)
	default:
		return false, fmt.Errorf("fleet: cache put %s: HTTP %d", hexKey, resp.StatusCode)
	}
}
