// Package fleet is the distributed campaign fabric: a coordinator that
// shards fault-campaign cells across registered workers under expiring
// leases, and the worker loop that pulls cells, executes them through
// internal/campaign, and streams results back. Every request a worker
// sends, its remote cache's included, goes through one Link to the
// coordinator, which retries transport errors, 429 and 5xx answers
// under the default Policy. faultcampaign -coordinator submits its job
// and reads its progress and span tree through a Link too.
//
// The failure model is explicit and small:
//
//   - Worker death / lease expiry — a cell whose lease deadline passes
//     without a heartbeat is re-queued for any other worker. Expiries
//     count toward the (cell, worker) failure tally; after
//     Config.ExcludeAfter failures the worker is excluded from that
//     cell ("worker is flaky"), never from the whole campaign.
//   - Poison cell — when ExcludeAfter-independent *errors* arrive from
//     Config.PoisonAfter distinct workers for the same cell, or a cell
//     with an error has no live worker left that may take it, the cell
//     is deterministic poison (a seeded simulation fails the same way
//     everywhere) and the campaign fails with that cell's error instead
//     of looping forever. Lease expiries alone never poison a cell.
//   - Coordinator crash — every finished cell was persisted to the
//     coordinator's content-addressed cache the moment it arrived, so a
//     restarted coordinator replays completed cells from the cache and
//     re-dispatches only the gap.
//
// Determinism is inherited, not re-proven: internal/campaign guarantees
// a single-cell spec computes the exact bytes of that cell in a full
// run, so the coordinator merely assembles remotely computed cells in
// canonical order — an N-worker fleet report is byte-identical to
// `-parallel 1`, which the chaos tests (kill a worker mid-campaign,
// restart the coordinator) pin down.
package fleet

import (
	"context"
	"fmt"
	"time"
)

// Policy configures the shared retry/backoff helper both sides of the
// wire use: exponential growth with decorrelated jitter (each delay is
// drawn between Base and 3x the previous delay, clamped to Cap), capped
// by a total sleep Budget so a dead coordinator fails a worker's call
// in bounded time instead of retrying forever.
type Policy struct {
	// Base is the first delay and the lower bound of every draw.
	// Zero selects 100ms.
	Base time.Duration
	// Cap clamps any single delay. Zero selects 5s.
	Cap time.Duration
	// Budget bounds the total time spent sleeping across the retry
	// sequence; once exceeded, Next reports done. Zero selects 2m.
	Budget time.Duration
	// Seed selects the jitter stream. The default (0) is a fixed
	// constant: retry schedules are then reproducible per process, and
	// callers that want per-client decorrelation (the reason jitter
	// exists) derive a seed from their identity.
	Seed uint64
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 5 * time.Second
	}
	if p.Budget <= 0 {
		p.Budget = 2 * time.Minute
	}
	if p.Cap < p.Base {
		p.Cap = p.Base
	}
	return p
}

// Backoff is one retry sequence. Not safe for concurrent use; start a
// fresh one per operation with Policy.Start.
type Backoff struct {
	pol      Policy
	prev     time.Duration
	slept    time.Duration
	rng      uint64
	attempts int
}

// Start begins a retry sequence under the policy.
func (p Policy) Start() *Backoff {
	p = p.withDefaults()
	seed := p.Seed
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Backoff{pol: p, rng: seed}
}

// splitmix64 advances the jitter stream; a tiny, well-mixed PRNG whose
// whole state is the seed, so equal seeds give equal schedules.
func (b *Backoff) splitmix64() uint64 {
	b.rng += 0x9E3779B97F4A7C15
	z := b.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Next returns the next delay and whether the caller may retry at all:
// ok is false once the policy's budget is exhausted. The first call
// returns Base exactly (no jitter — an immediate first retry schedule
// should be predictable); later delays are decorrelated-jittered.
func (b *Backoff) Next() (time.Duration, bool) {
	if b.slept >= b.pol.Budget {
		return 0, false
	}
	var d time.Duration
	if b.attempts == 0 {
		d = b.pol.Base
	} else {
		// Decorrelated jitter: uniform in [Base, 3*prev], clamped.
		hi := 3 * b.prev
		if hi > b.pol.Cap {
			hi = b.pol.Cap
		}
		span := hi - b.pol.Base
		if span <= 0 {
			d = b.pol.Base
		} else {
			d = b.pol.Base + time.Duration(b.splitmix64()%uint64(span+1))
		}
	}
	if remaining := b.pol.Budget - b.slept; d > remaining {
		d = remaining
	}
	b.attempts++
	b.prev = d
	b.slept += d
	return d, true
}

// Attempts returns how many delays Next has handed out.
func (b *Backoff) Attempts() int { return b.attempts }

// Sleep takes the next delay and sleeps it, honoring ctx. It returns an
// error when the budget is exhausted or ctx is done — either way the
// caller's retry loop ends.
func (b *Backoff) Sleep(ctx context.Context) error {
	d, ok := b.Next()
	if !ok {
		return b.spent()
	}
	return sleep(ctx, d)
}

// spent is the error that ends a sequence whose budget is exhausted.
func (b *Backoff) spent() error {
	return fmt.Errorf("fleet: retry budget %v exhausted after %d attempts", b.pol.Budget, b.attempts)
}

// sleep waits d, or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
