package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"pilotrf/internal/telemetry"
)

// Link is one client's connection to a coordinator, made by NewLink. A
// worker's wire messages and its remote cache's reads and writes go
// through one, and so does every request of faultcampaign -coordinator.
type Link struct {
	base    string // coordinator base URL, trailing slashes trimmed
	retry   Policy
	retries *telemetry.Counter
	// OnRetry, when set, is told of each retry before its delay: the
	// error that failed the request and the delay about to be slept.
	OnRetry func(err error, delay time.Duration)
}

// NewLink returns a link to the coordinator at baseURL, given with or
// without a trailing slash, that retries under the default Policy.
func NewLink(baseURL string) Link {
	return Link{base: strings.TrimRight(baseURL, "/"), retries: new(telemetry.Counter)}
}

// Open sends one request and returns the unread body and the status of
// a 2xx answer; the caller closes the body. Transport errors, 429 and
// 5xx answers retry under the policy (the spent budget's error wraps
// the last one); any other status returns at once with its code and the
// body's first line in the error.
func (l Link) Open(ctx context.Context, method, path string, body []byte) (io.ReadCloser, int, error) {
	return l.open(ctx, l.retry.Start(), method, path, body)
}

// Do is Open plus a read of the body, bounded at one byte past
// maxWireBytes so callers can tell an oversized answer. A body that
// fails to read retries under the same policy.
func (l Link) Do(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	bo := l.retry.Start()
	for {
		rc, code, err := l.open(ctx, bo, method, path, body)
		if err != nil {
			return nil, code, err
		}
		buf, err := io.ReadAll(io.LimitReader(rc, maxWireBytes+1))
		rc.Close()
		if err == nil {
			return buf, code, nil
		}
		if err := l.backoff(ctx, bo, fmt.Errorf("fleet: %s: reading response: %w", path, err)); err != nil {
			return nil, code, err
		}
	}
}

func (l Link) open(ctx context.Context, bo *Backoff, method, path string, body []byte) (io.ReadCloser, int, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, method, l.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		code := 0
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			code = resp.StatusCode
			if code >= 200 && code < 300 {
				return resp.Body, code, nil
			}
			buf, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			err = fmt.Errorf("fleet: %s: HTTP %d: %s", path, code, firstLine(buf))
			if code != http.StatusTooManyRequests && code < 500 {
				return nil, code, err
			}
		}
		if err := l.backoff(ctx, bo, err); err != nil {
			return nil, code, err
		}
	}
}

// backoff sleeps the next delay before a retry of a request that failed
// with err, or returns the error that ends the retries: ctx's, or the
// spent budget's wrapping err.
func (l Link) backoff(ctx context.Context, bo *Backoff, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	d, ok := bo.Next()
	if !ok {
		return fmt.Errorf("%w: %w", bo.spent(), err)
	}
	if l.OnRetry != nil {
		l.OnRetry(err, d)
	}
	if serr := sleep(ctx, d); serr != nil {
		return fmt.Errorf("%w: %w", serr, err)
	}
	l.retries.Inc()
	return nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
