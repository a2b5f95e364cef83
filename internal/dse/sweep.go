package dse

import (
	"bytes"
	"context"
	"fmt"

	"pilotrf/internal/design"
	"pilotrf/internal/energy"
	"pilotrf/internal/flightrec"
	"pilotrf/internal/jobs"
	"pilotrf/internal/sim"
	"pilotrf/internal/workloads"
)

// BaselineScheme is the normalization reference: the mrf-stv scheme at
// default knobs, the paper's performance baseline. When a sweep
// excludes it, the first swept point becomes the baseline instead.
const BaselineScheme = "mrf-stv"

// Options configures a sweep.
type Options struct {
	// Schemes are the design scheme names to sweep (registry order is
	// preserved regardless of the order given here). Empty sweeps every
	// registered scheme.
	Schemes []string
	// Workloads are the benchmark names to run (run order is the order
	// given). Empty sweeps the whole Table I pool.
	Workloads []string
	// Scale is the workload CTA scale factor (0 = 1.0, full size).
	Scale float64
	// SMs is the simulated SM count (0 = 1).
	SMs int
	// Workers is the parallel worker count (0 = one per core). The
	// report is byte-identical at any worker count.
	Workers int
	// Replay, when true, additionally records each default-knob point's
	// first workload and replays it against the recording — the
	// flight-recorder determinism check, applied to every scheme.
	Replay bool
}

// cell is one (point, workload) simulation result.
type cell struct {
	run        design.Run
	warpInstrs uint64
}

// pointSpec is one grid cell to evaluate: a scheme at one knob setting.
type pointSpec struct {
	scheme design.Scheme
	knobs  design.Knobs
}

// Sweep runs the full scheme-by-knob-by-workload grid on a worker
// pool and returns the priced, normalized, Pareto-marked report. Tasks
// merge in canonical submission order, so the report bytes do not
// depend on Workers.
func Sweep(ctx context.Context, opts Options) (*Report, error) {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if opts.SMs <= 0 {
		opts.SMs = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = jobs.DefaultWorkers()
	}

	specs, err := resolveSchemes(opts.Schemes)
	if err != nil {
		return nil, err
	}
	pool, err := resolveWorkloads(opts.Workloads, opts.Scale)
	if err != nil {
		return nil, err
	}

	p, err := jobs.New(jobs.Config{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	defer p.Close()

	// One task per (point, workload) cell; jobs.Map returns results in
	// submission order, which is the canonical (point-major) order the
	// report aggregates in.
	n := len(specs) * len(pool)
	results, err := jobs.Map(ctx, p, n, func(ctx context.Context, i int) (interface{}, error) {
		spec := specs[i/len(pool)]
		w := pool[i%len(pool)]
		replay := opts.Replay && i%len(pool) == 0 && spec.knobs == (design.Knobs{})
		return runCell(spec, w, opts.SMs, replay)
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Schema: Schema,
		Scale:  opts.Scale,
		SMs:    opts.SMs,
	}
	for _, w := range pool {
		rep.Workloads = append(rep.Workloads, w.Name)
	}
	for pi, spec := range specs {
		var agg design.Run
		var instrs uint64
		for wi := range pool {
			c := results[pi*len(pool)+wi].(cell)
			for part, acc := range c.run.PartAccesses {
				agg.PartAccesses[part] += acc
			}
			agg.Cycles += c.run.Cycles
			agg.TotalAccesses += c.run.TotalAccesses
			agg.RFC.Add(c.run.RFC)
			agg.Gating.Add(c.run.Gating)
			instrs += c.warpInstrs
		}
		e := spec.scheme.Energy(spec.knobs, agg)
		pt := Point{
			Scheme:        spec.scheme.Name(),
			Knobs:         spec.knobs.String(),
			Base:          e.Design.String(),
			Cycles:        agg.Cycles,
			WarpInstrs:    instrs,
			TotalAccesses: agg.TotalAccesses,
			DynamicPJ:     e.DynamicPJ,
			LeakagePJ:     e.LeakagePJ,
			TotalPJ:       e.TotalPJ(),
		}
		if agg.Cycles > 0 {
			pt.IPC = float64(instrs) / float64(agg.Cycles)
		}
		rep.Points = append(rep.Points, pt)
	}

	normalize(rep)
	MarkPareto(rep.Points)
	return rep, nil
}

// resolveSchemes expands the name filter into the grid of point specs,
// in registry order with each scheme's Grid() order, validating every
// knob setting.
func resolveSchemes(names []string) ([]pointSpec, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		if _, err := design.Resolve(n); err != nil {
			return nil, fmt.Errorf("dse: %w", err)
		}
		want[n] = true
	}
	var specs []pointSpec
	for _, sch := range design.All() {
		if len(want) > 0 && !want[sch.Name()] {
			continue
		}
		for _, k := range sch.Grid() {
			if err := sch.Validate(k); err != nil {
				return nil, fmt.Errorf("dse: %s grid: %w", sch.Name(), err)
			}
			specs = append(specs, pointSpec{scheme: sch, knobs: k})
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("dse: no schemes selected")
	}
	return specs, nil
}

// resolveWorkloads expands the benchmark name filter (empty = the whole
// Table I pool), applying the CTA scale factor.
func resolveWorkloads(names []string, scale float64) ([]workloads.Workload, error) {
	var pool []workloads.Workload
	if len(names) == 0 {
		pool = workloads.All()
	} else {
		for _, n := range names {
			w, err := workloads.ByName(n)
			if err != nil {
				return nil, fmt.Errorf("dse: %w", err)
			}
			pool = append(pool, w)
		}
	}
	for i := range pool {
		pool[i] = pool[i].Scale(scale)
	}
	return pool, nil
}

// runCell simulates one workload under one grid point with the energy
// ledger attached, verifies ledger conservation, and (optionally)
// replays the run against its own flight recording.
func runCell(spec pointSpec, w workloads.Workload, sms int, replay bool) (cell, error) {
	label := fmt.Sprintf("%s/%s/%s", spec.scheme.Name(), spec.knobs, w.Name)
	cfg, err := sim.DefaultConfig().WithScheme(spec.scheme, spec.knobs)
	if err != nil {
		return cell{}, fmt.Errorf("dse: %s: %w", label, err)
	}
	cfg.NumSMs = sms
	led := energy.NewLedger(cfg.RF.Design, 0)
	cfg.Energy = led
	var rec *flightrec.Recorder
	if replay {
		rec = sim.NewFlightRecorder(&cfg, label, 0)
		cfg.Record = rec
	}
	g, err := sim.New(cfg)
	if err != nil {
		return cell{}, fmt.Errorf("dse: %s: %w", label, err)
	}
	rs, err := g.RunKernels(w.Name, w.Kernels)
	if err != nil {
		return cell{}, fmt.Errorf("dse: %s: %w", label, err)
	}
	if err := led.CheckConservation(rs.PartAccesses(), rs.TotalCycles()); err != nil {
		return cell{}, fmt.Errorf("dse: %s: energy conservation: %w", label, err)
	}
	if rec != nil {
		if err := replayCheck(cfg, rec, w); err != nil {
			return cell{}, fmt.Errorf("dse: %s: %w", label, err)
		}
	}
	c := cell{run: rs.DesignRun()}
	for i := range rs.Kernels {
		c.warpInstrs += rs.Kernels[i].WarpInstrs
	}
	return c, nil
}

// replayCheck re-runs the workload against the recorded event stream
// and fails on any divergence — the determinism property every scheme
// must uphold.
func replayCheck(cfg sim.Config, rec *flightrec.Recorder, w workloads.Workload) error {
	// Round-trip through NDJSON so the replay also covers the recording
	// codec, not just the in-memory log.
	var buf bytes.Buffer
	if err := rec.Log().WriteNDJSON(&buf); err != nil {
		return err
	}
	log, err := flightrec.ReadNDJSON(&buf)
	if err != nil {
		return err
	}
	chk := flightrec.NewChecker(log)
	cfg.Energy = nil
	cfg.Record = chk
	g, err := sim.New(cfg)
	if err != nil {
		return err
	}
	if _, err := g.RunKernels(w.Name, w.Kernels); err != nil {
		return err
	}
	if err := chk.Err(); err != nil {
		return fmt.Errorf("replay diverged: %w", err)
	}
	return nil
}

// normalize fills Baseline, NormEnergy, and NormCycles: the reference
// is mrf-stv at default knobs when swept, else the first point.
func normalize(rep *Report) {
	base := &rep.Points[0]
	for i := range rep.Points {
		if rep.Points[i].Scheme == BaselineScheme && rep.Points[i].Knobs == (design.Knobs{}).String() {
			base = &rep.Points[i]
			break
		}
	}
	rep.Baseline = base.Scheme + "/" + base.Knobs
	bpj, bcyc := base.TotalPJ, base.Cycles
	for i := range rep.Points {
		if bpj > 0 {
			rep.Points[i].NormEnergy = rep.Points[i].TotalPJ / bpj
		}
		if bcyc > 0 {
			rep.Points[i].NormCycles = float64(rep.Points[i].Cycles) / float64(bcyc)
		}
	}
}
