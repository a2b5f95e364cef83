// Package experiments reproduces every table and figure of the paper's
// evaluation: each exported function regenerates one artifact from the
// simulator, the workload suite, and the circuit models, returning typed
// rows that cmd/experiments and the benchmark harness print.
//
// The paper-vs-measured comparison for each experiment is recorded in
// EXPERIMENTS.md at the repository root.
package experiments

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"pilotrf/internal/design"
	"pilotrf/internal/isa"
	"pilotrf/internal/jobs"
	"pilotrf/internal/profile"
	"pilotrf/internal/sim"
	"pilotrf/internal/stats"
	"pilotrf/internal/trace"
	"pilotrf/internal/workloads"
)

// Runner executes workloads under experiment configurations, caching runs
// so experiments that share a configuration (for example Table I and
// Figure 10, which both need the hybrid partitioned run) pay for it once.
// The cache is safe for concurrent use: Warm fills it from all CPU cores;
// duplicate in-flight requests for the same key wait rather than re-run.
type Runner struct {
	// Scale multiplies workload CTA counts (1.0 = the tuned default).
	Scale float64
	// SMs is the simulated SM count (2 = the tuned default).
	SMs int
	// Workers is the worker count Warm uses for its jobs.Pool
	// (<= 0 selects one per core). Results are identical for any
	// value — the pool merges deterministically and every run is
	// independent — so this only trades wall-clock for cores.
	Workers int
	// Trace, when non-nil, records Warm's execution as a span tree:
	// one experiments.warm root, one warm.run span per (workload,
	// configuration) pair, plus the pool's per-task spans. Span ids
	// derive from the warm grid, not scheduling, so the tree shape is
	// identical at any Workers.
	Trace *trace.Recorder

	mu       sync.Mutex
	cache    map[string]sim.RunStats
	inflight map[string]chan struct{}
}

// NewRunner returns a runner at the given workload scale and SM count.
// Scale <= 0 selects 1.0; SMs <= 0 selects 2.
func NewRunner(scale float64, sms int) *Runner {
	if scale <= 0 {
		scale = 1
	}
	if sms <= 0 {
		sms = 2
	}
	return &Runner{
		Scale:    scale,
		SMs:      sms,
		cache:    make(map[string]sim.RunStats),
		inflight: make(map[string]chan struct{}),
	}
}

// baseConfig is the starting configuration for every experiment run.
func (r *Runner) baseConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumSMs = r.SMs
	return cfg
}

// designConfig is baseConfig reconfigured for the named design scheme
// at its default knobs.
func (r *Runner) designConfig(name string) sim.Config {
	return withScheme(r.baseConfig(), name, design.Knobs{})
}

// withScheme reconfigures cfg for a registered design scheme. Experiment
// scheme names and knobs are constants, so a failure is a bug.
func withScheme(cfg sim.Config, name string, k design.Knobs) sim.Config {
	cfg, err := cfg.WithScheme(design.MustLookup(name), k)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return cfg
}

// run executes a workload under cfg, caching by (workload, key). When
// another goroutine is already computing the same key, run waits for it
// instead of duplicating the simulation.
func (r *Runner) run(w workloads.Workload, cfg sim.Config, key string) sim.RunStats {
	ck := w.Name + "|" + key
	for {
		r.mu.Lock()
		if rs, ok := r.cache[ck]; ok {
			r.mu.Unlock()
			return rs
		}
		if wait, busy := r.inflight[ck]; busy {
			r.mu.Unlock()
			<-wait
			continue
		}
		done := make(chan struct{})
		r.inflight[ck] = done
		r.mu.Unlock()

		g, err := sim.New(cfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		rs, err := g.RunKernels(w.Name, w.Scale(r.Scale).Kernels)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", w.Name, err))
		}
		r.mu.Lock()
		r.cache[ck] = rs
		delete(r.inflight, ck)
		r.mu.Unlock()
		close(done)
		return rs
	}
}

// Warm fills the cache for the configurations the standard experiment set
// reads, running them on a jobs.Pool with Workers workers (one per core
// by default). Experiments afterwards hit the cache; results are
// identical to sequential execution (every run is deterministic and
// independent).
func (r *Runner) Warm() {
	type job struct {
		cfg func() sim.Config
		key string
	}
	warmJobs := []job{
		{func() sim.Config { return r.designConfig("mrf-stv") }, "base-stv-gto"},
		{func() sim.Config { return r.designConfig("mrf-ntv") }, "base-ntv-gto"},
		{func() sim.Config {
			c := r.designConfig("part-adaptive")
			c.Profiling = profile.TechniqueHybrid
			return c
		}, "part-adaptive-hybrid-gto"},
		{func() sim.Config {
			c := r.designConfig("part")
			c.Profiling = profile.TechniqueCompiler
			return c
		}, "part-compiler"},
		{func() sim.Config {
			c := r.designConfig("part")
			c.Profiling = profile.TechniquePilot
			return c
		}, "part-pilot"},
		{func() sim.Config {
			c := r.designConfig("mrf-stv")
			c.Policy = sim.PolicyTL
			return c
		}, "base-stv-tl"},
		{func() sim.Config {
			c := r.designConfig("mrf-stv")
			c.Policy = sim.PolicyLRR
			return c
		}, "base-stv-lrr"},
		{func() sim.Config {
			c := r.designConfig("part-adaptive")
			c.Profiling = profile.TechniqueCompiler
			return c
		}, "part-adaptive-compiler"},
		{func() sim.Config {
			c := r.designConfig("part-adaptive")
			c.Policy = sim.PolicyTL
			return c
		}, "part-adaptive-hybrid-tl"},
		{func() sim.Config {
			c := r.designConfig("part-adaptive")
			c.Policy = sim.PolicyLRR
			return c
		}, "part-adaptive-hybrid-lrr"},
	}
	workers := r.Workers
	if workers <= 0 {
		workers = jobs.DefaultWorkers()
	}
	pool, err := jobs.New(jobs.Config{Workers: workers})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	defer pool.Close()
	all := workloads.All()
	ctx := context.Background()
	var root *trace.ActiveSpan
	if r.Trace != nil {
		root = r.Trace.Root("experiments.warm", trace.TraceID("pilotrf-experiments", "warm"))
		root.SetAttr("workloads", strconv.Itoa(len(all)))
		root.SetAttr("configs", strconv.Itoa(len(warmJobs)))
		defer root.End()
		ctx = trace.NewContext(ctx, root.Context())
	}
	sc := trace.FromContext(ctx)
	if _, err := jobs.Map(ctx, pool, len(all)*len(warmJobs),
		func(ctx context.Context, i int) (interface{}, error) {
			w := all[i/len(warmJobs)]
			j := warmJobs[i%len(warmJobs)]
			if sc.Active() {
				sp := sc.Start("warm.run", w.Name, j.key)
				sp.SetAttr("workload", w.Name)
				sp.SetAttr("config", j.key)
				defer sp.End()
			}
			r.run(w, j.cfg(), j.key)
			return nil, nil
		}); err != nil {
		// r.run panics on simulator errors; the pool converts those to
		// task errors, and Warm restores the historical fail-fast.
		panic(fmt.Sprintf("experiments: warm: %v", err))
	}
}

// runPerKernelOracle runs a workload under the oracle technique, giving
// each kernel its own measured top-N register set (multi-kernel workloads
// have disjoint hot sets, so a single oracle list would be wrong).
func (r *Runner) runPerKernelOracle(w workloads.Workload, cfg sim.Config, topN int) sim.RunStats {
	ck := w.Name + "|oracle"
	r.mu.Lock()
	if rs, ok := r.cache[ck]; ok {
		r.mu.Unlock()
		return rs
	}
	r.mu.Unlock()
	base := r.baselineRun(w)
	scaled := w.Scale(r.Scale)
	out := sim.RunStats{Workload: w.Name}
	for ki := range scaled.Kernels {
		oracle := topRegsOf(base.Kernels[ki].RegHist.TopN(topN))
		kcfg := cfg
		kcfg.Profiling = profile.TechniqueOracle
		kcfg.Oracle = oracle
		g, err := sim.New(kcfg)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		ks, err := g.RunKernel(&scaled.Kernels[ki])
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", w.Name, err))
		}
		out.Kernels = append(out.Kernels, ks)
	}
	r.mu.Lock()
	r.cache[ck] = out
	r.mu.Unlock()
	return out
}

// baselineRun is the MRF@STV GTO run every normalization uses.
func (r *Runner) baselineRun(w workloads.Workload) sim.RunStats {
	cfg := r.designConfig("mrf-stv")
	return r.run(w, cfg, "base-stv-gto")
}

func topRegsOf(kvs []stats.KV) []isa.Reg {
	out := make([]isa.Reg, len(kvs))
	for i, kv := range kvs {
		out[i] = isa.Reg(kv.Key)
	}
	return out
}
