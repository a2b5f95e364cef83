package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"pilotrf/internal/benchstat"
	"pilotrf/internal/campaign"
	"pilotrf/internal/jobs"
	"pilotrf/internal/telemetry"
	"pilotrf/internal/trace"
	"pilotrf/internal/workloads"
)

// campaignParams sizes the campaign-cache workload: a cold pass over
// the campaign's default grid, one campaign.Run per (design, workload),
// then a warm pass over the same grid plus the mrf-stv baseline on the
// same cache, so most of it is answered from the cache.
type campaignParams struct {
	benchmarks  []string // Table I order
	coldDesigns []string
	warmDesigns []string
	trials      int
	scale       float64
	workers     int
	pins        map[string]string
	round       time.Duration // nominal duration of one round (see env.startPhase)
}

func defaultCampaignParams() campaignParams {
	return campaignParams{
		benchmarks:  workloads.Names(),
		coldDesigns: []string{"mrf-ntv", "part", "part-adaptive"},
		warmDesigns: []string{"mrf-stv", "mrf-ntv", "part", "part-adaptive"},
		trials:      3,
		scale:       0.02,
		workers:     2,
		pins:        loadPins(),
		round:       6 * time.Second,
	}
}

// campaignPinKey names the pinned SHA-256 of the cold pass's assembled
// report.
func campaignPinKey(seed uint64, p campaignParams) string {
	return fmt.Sprintf("campaign/seed=%d/trials=%d/scale=%g", seed, p.trials, p.scale)
}

// campaignRound is one cold plus warm pass on a fresh cache.
type campaignRound struct {
	secs     float64   // nominal seconds in campaign.Run
	usPerOp  []float64 // per call: nominal microseconds per reported trial
	rssMiB   []float64 // per call: peak resident set
	trials   int
	injected uint64
	cold     campaign.Report // the cold pass, assembled in canonical order
	warm     []campaign.Cell
	cache    jobs.CacheStats
}

// spec is the campaign request of one call: one design on one workload,
// every protection scheme, the run's seed.
func (p campaignParams) spec(seed uint64, design, bench string) campaign.Spec {
	return campaign.Spec{Benchmarks: []string{bench}, Designs: []string{design},
		Trials: p.trials, Seed: seed, Scale: p.scale}
}

// runRound runs one cold and one warm pass on a fresh cache in dir.
func runRound(ctx context.Context, e *env, p campaignParams, pool *jobs.Pool, dir string, n int) (*campaignRound, error) {
	cache, err := jobs.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	r := &campaignRound{}
	sp := e.root.Context().Start("campaign.round", strconv.Itoa(n))
	defer sp.End()
	for pass, designs := range [][]string{p.coldDesigns, p.warmDesigns} {
		for _, d := range designs {
			for _, b := range p.benchmarks {
				e.cal.measure()
				if err := resetPeakRSS(); err != nil {
					return nil, err
				}
				csp := sp.Context().Start("campaign.Run", strconv.Itoa(pass), d, b)
				csp.SetAttr("design", d)
				csp.SetAttr("workload", b)
				t0 := time.Now()
				rep, err := campaign.Run(trace.NewContext(ctx, csp.Context()), p.spec(e.seed, d, b),
					campaign.Options{Pool: pool, Cache: cache})
				secs := e.cal.seconds(t0, time.Since(t0))
				csp.End()
				if err != nil {
					return nil, fmt.Errorf("campaign %s/%s: %w", d, b, err)
				}
				rss, err := peakRSS()
				if err != nil {
					return nil, err
				}
				trials := len(rep.Cells) * p.trials
				r.secs += secs
				r.usPerOp = append(r.usPerOp, secs*1e6/float64(trials))
				r.rssMiB = append(r.rssMiB, rss)
				r.trials += trials
				for _, c := range rep.Cells {
					r.injected += c.Injected
				}
				if pass == 0 {
					if r.cold.Schema == "" {
						r.cold = rep
						r.cold.Cells = nil
					}
					r.cold.Cells = append(r.cold.Cells, rep.Cells...)
				} else {
					r.warm = append(r.warm, rep.Cells...)
				}
			}
		}
	}
	r.cache = cache.Stats()
	return r, nil
}

// reportSHA is the SHA-256 of a report's canonical JSON encoding.
func reportSHA(rep campaign.Report) string {
	b, err := json.Marshal(rep)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runCampaign measures the campaign-cache workload: as many whole
// rounds as the budget fixes, each on a fresh cache.
func runCampaign(ctx context.Context, e *env, p campaignParams) (*outcome, error) {
	oc := &outcome{metrics: map[string]float64{}}
	m := oc.metrics
	reg := telemetry.NewRegistry()
	var pool *jobs.Pool
	defer func() {
		if pool != nil {
			pool.Close()
		}
	}()
	warm := p.spec(e.seed, "part-adaptive", p.benchmarks[0])
	warm.Protect, warm.Trials = []string{"secded"}, 1
	setup, err := setupMedian(e.cal, func() (func(), error) {
		var err error
		if pool, err = jobs.New(jobs.Config{Workers: p.workers, Metrics: reg}); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(e.tmp, "warmup-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cache, err := jobs.OpenCache(dir)
		if err != nil {
			return nil, err
		}
		_, err = campaign.Run(ctx, warm, campaign.Options{Pool: pool, Cache: cache})
		return pool.Close, err
	})
	if err != nil {
		return nil, err
	}
	m["setup_s"] = setup

	steals0, tasks0 := reg.Counter("jobs_steals").Value(), reg.Counter("jobs_completed").Value()
	var rounds []*campaignRound
	var usPerOp, rssMiB []float64
	var trials int
	var secs float64
	before := readMem()
	start := time.Now()
	calls := len(p.benchmarks) * (len(p.coldDesigns) + len(p.warmDesigns))
	pace := e.startPhase(p.round, (minLatencySamples+calls-1)/calls)
	for n := 0; pace.more(n); n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := runRound(ctx, e, p, pool, filepath.Join(e.tmp, fmt.Sprintf("cache-%d", n)), n)
		oc.attempted += int64(calls)
		if err != nil {
			oc.fail("round %d: %v", n, err)
			return oc, nil
		}
		rounds = append(rounds, r)
		usPerOp = append(usPerOp, r.usPerOp...)
		rssMiB = append(rssMiB, r.rssMiB...)
		trials += r.trials
		secs += r.secs
	}
	e.cal.measure()
	after := readMem()
	m["host.phase_s"] = time.Since(start).Seconds()
	m["peak_rss_mib"] = benchstat.Summarize(rssMiB).Median
	m["ops_per_s"] = ratio(float64(trials), secs)
	memMetrics(m, &before, &after, float64(trials))
	gcMetrics(m, &before, &after, secs, e.cal.runScale(start))
	if err := latencyMetrics(m, "us_per_op", usPerOp); err != nil {
		return nil, err
	}

	var hits, lookups float64
	var injected uint64
	for _, r := range rounds {
		hits += float64(r.cache.Hits)
		lookups += float64(r.cache.Hits + r.cache.Misses)
		injected += r.injected
	}
	m["jobs.cache_hit_ratio"] = ratio(hits, lookups)
	m["jobs.steals_per_ktask"] = ratio(1e3*float64(reg.Counter("jobs_steals").Value()-steals0),
		float64(reg.Counter("jobs_completed").Value()-tasks0))
	m["fault.injected_per_trial"] = ratio(float64(injected), float64(trials))
	if e.traced() {
		m["traced.ops_per_s"] = m["ops_per_s"]
		if err := spanLayers(m, e.spans.Spans(), e.cal); err != nil {
			return nil, err
		}
	}
	verifyCampaign(oc, e.seed, p, rounds)
	return oc, nil
}

// verifyCampaign checks every round against the first and against the
// pinned report, and the warm pass's cells against the cold pass's.
func verifyCampaign(oc *outcome, seed uint64, p campaignParams, rounds []*campaignRound) {
	sha := reportSHA(rounds[0].cold)
	if pin, ok := p.pins[campaignPinKey(seed, p)]; ok && pin != sha {
		oc.fail("cold report SHA-256 %s, pinned %s", sha, pin)
	}
	for n, r := range rounds {
		if got := reportSHA(r.cold); got != sha {
			oc.fail("round %d: cold report SHA-256 %s != round 0's %s", n, got, sha)
		}
		cold := map[string]campaign.Cell{}
		for _, c := range r.cold.Cells {
			cold[c.Design+"/"+c.Workload+"/"+c.Protection] = c
		}
		for _, c := range r.warm {
			if want, ok := cold[c.Design+"/"+c.Workload+"/"+c.Protection]; ok && want != c {
				oc.fail("round %d: warm cell %s/%s/%s differs from the cold pass", n, c.Design, c.Workload, c.Protection)
			}
		}
	}
}
