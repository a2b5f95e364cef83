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

// Runner executes workloads under experiment configurations. It caches
// every run by its workload and configuration value, so experiments that
// share a configuration (Table I and Figure 10 both read the hybrid
// partitioned run, and the sensitivity sweeps revisit it) pay for it
// once. The cache is safe for concurrent use: a request for a run that
// is already in flight waits for it rather than simulating again.
type Runner struct {
	// Scale multiplies workload CTA counts (1.0 = the tuned default).
	Scale float64
	// SMs is the simulated SM count (2 = the tuned default).
	SMs int
	// Workers is how many workloads an experiment simulates at once
	// (<= 0 selects one per core). Results are identical for any
	// value — every run is independent and rows merge in Table I
	// order — so this only trades wall-clock for cores.
	Workers int
	// Trace, when active, parents one experiments.run span per
	// simulation the runner performs. Span ids derive from the run's
	// workload and configuration, not scheduling, so the tree is
	// identical at any Workers.
	Trace trace.SpanContext

	mu       sync.Mutex
	cache    map[runKey]sim.RunStats
	inflight map[runKey]chan struct{}
}

// runKey names one cached run: a workload under a configuration value
// rendered with %#v, so every field of sim.Config takes part. oracleTopN
// is nonzero for the per-kernel oracle runs.
type runKey struct {
	workload   string
	config     string
	oracleTopN int
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
		cache:    make(map[runKey]sim.RunStats),
		inflight: make(map[runKey]chan struct{}),
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

// newGPU builds a simulator for an experiment configuration; those are
// constants, so an invalid one is a bug.
func newGPU(cfg sim.Config) *sim.GPU {
	g, err := sim.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return g
}

// suite returns the Table I workloads. Building them assembles every
// kernel, so it happens once; the experiments only read them.
var suite = sync.OnceValue(workloads.All)

// perWorkload calls fn for every Table I workload, up to Workers at a
// time, and returns the results in Table I order, so callers fold means
// and geomeans in the same order at any worker count. fn must not call
// perWorkload itself.
func perWorkload[T any](r *Runner, fn func(w workloads.Workload) T) []T {
	all := suite()
	out := make([]T, len(all))
	workers := r.Workers
	if workers <= 0 {
		workers = jobs.DefaultWorkers()
	}
	pool, err := jobs.New(jobs.Config{Workers: workers})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	defer pool.Close()
	if _, err := jobs.Map(context.Background(), pool, len(all),
		func(_ context.Context, i int) (interface{}, error) {
			out[i] = fn(all[i])
			return nil, nil
		}); err != nil {
		// A run panics on a simulator error; the pool turns that into a
		// task error, and the experiment fails fast.
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return out
}

// configKey renders every field of cfg, so equal configurations share
// one cached run and no field can be left out of the key.
func configKey(cfg sim.Config) string { return fmt.Sprintf("%#v", cfg) }

// runs returns every Table I workload's run under cfg, in Table I order.
// It renders the configuration once for all of them, and fans out only
// when some run is not cached yet.
func (r *Runner) runs(cfg sim.Config) []sim.RunStats {
	key := configKey(cfg)
	if out, ok := r.cachedRuns(key); ok {
		return out
	}
	return perWorkload(r, func(w workloads.Workload) sim.RunStats { return r.runKeyed(w, cfg, key) })
}

// cachedRuns returns every workload's cached run under the configuration
// rendered as key, or false if any is missing.
func (r *Runner) cachedRuns(key string) ([]sim.RunStats, bool) {
	all := suite()
	out := make([]sim.RunStats, len(all))
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, w := range all {
		rs, ok := r.cache[runKey{workload: w.Name, config: key}]
		if !ok {
			return nil, false
		}
		out[i] = rs
	}
	return out, true
}

// run executes a workload under cfg, once per distinct configuration
// value.
func (r *Runner) run(w workloads.Workload, cfg sim.Config) sim.RunStats {
	return r.runKeyed(w, cfg, configKey(cfg))
}

// runKeyed is run with cfg's configKey already rendered.
func (r *Runner) runKeyed(w workloads.Workload, cfg sim.Config, key string) sim.RunStats {
	return r.memo(runKey{workload: w.Name, config: key}, cfg, func() sim.RunStats {
		rs, err := newGPU(cfg).RunKernels(w.Name, w.Scale(r.Scale).Kernels)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", w.Name, err))
		}
		return rs
	})
}

// memo returns the cached run k of a workload under cfg, calling
// simulate on a miss. When another goroutine is already simulating k,
// memo waits for it instead of duplicating the work.
func (r *Runner) memo(k runKey, cfg sim.Config, simulate func() sim.RunStats) sim.RunStats {
	for {
		r.mu.Lock()
		if rs, ok := r.cache[k]; ok {
			r.mu.Unlock()
			return rs
		}
		if wait, busy := r.inflight[k]; busy {
			r.mu.Unlock()
			<-wait
			continue
		}
		done := make(chan struct{})
		r.inflight[k] = done
		r.mu.Unlock()

		sp := r.Trace.Start("experiments.run", k.workload, k.config, strconv.Itoa(k.oracleTopN))
		sp.SetAttr("workload", k.workload)
		sp.SetAttr("design", cfg.RF.Design.String())
		if k.oracleTopN > 0 {
			sp.SetAttr("oracle_top_n", strconv.Itoa(k.oracleTopN))
		}
		rs := simulate()
		sp.End()

		r.mu.Lock()
		r.cache[k] = rs
		delete(r.inflight, k)
		r.mu.Unlock()
		close(done)
		return rs
	}
}

// oracleRuns runs every workload under the oracle technique, giving each
// kernel its own measured top-N register set (multi-kernel workloads
// have disjoint hot sets, so a single oracle list would be wrong).
func (r *Runner) oracleRuns(cfg sim.Config, topN int) []sim.RunStats {
	key := configKey(cfg)
	return perWorkload(r, func(w workloads.Workload) sim.RunStats {
		k := runKey{workload: w.Name, config: key, oracleTopN: topN}
		return r.memo(k, cfg, func() sim.RunStats {
			hot := r.run(w, r.designConfig("mrf-stv"))
			scaled := w.Scale(r.Scale)
			out := sim.RunStats{Workload: w.Name}
			for ki := range scaled.Kernels {
				kcfg := cfg
				kcfg.Profiling = profile.TechniqueOracle
				kcfg.Oracle = topRegsOf(hot.Kernels[ki].RegHist.TopN(topN))
				ks, err := newGPU(kcfg).RunKernel(&scaled.Kernels[ki])
				if err != nil {
					panic(fmt.Sprintf("experiments: %s: %v", w.Name, err))
				}
				out.Kernels = append(out.Kernels, ks)
			}
			return out
		})
	})
}

// baselineRuns are the MRF@STV GTO runs every normalization uses.
func (r *Runner) baselineRuns() []sim.RunStats {
	return r.runs(r.designConfig("mrf-stv"))
}

// slowdown is rs's execution time normalized to base's.
func slowdown(rs, base sim.RunStats) float64 {
	return float64(rs.TotalCycles()) / float64(base.TotalCycles())
}

func topRegsOf(kvs []stats.KV) []isa.Reg {
	out := make([]isa.Reg, len(kvs))
	for i, kv := range kvs {
		out[i] = isa.Reg(kv.Key)
	}
	return out
}
