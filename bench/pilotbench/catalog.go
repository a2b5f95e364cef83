package main

import (
	"fmt"
	"sort"
)

// The four workloads, in the order BENCHMARK.json lists them.
const (
	wDetached = "suite-detached"
	wObserved = "suite-observed"
	wCampaign = "campaign-cache"
	wServe    = "serve-closed"
)

var (
	allWorkloads  = []string{wDetached, wObserved, wCampaign, wServe}
	suites        = []string{wDetached, wObserved}
	jobWorkloads  = []string{wCampaign, wServe}
	serveWorkload = []string{wServe}
	observedOnly  = []string{wObserved}
)

// move names the end-to-end metric, on one workload, that a per-layer
// metric is expected to move — written down before anything is measured
// so a claimed gain can be traced to the layer that produced it.
type move struct {
	metric, workload string
}

// layerMetric is the catalog entry of one per-layer metric. Units and
// directions live in BENCHMARK.json; the catalog adds what that file has
// no room for.
type layerMetric struct {
	layer     string   // the repository module the metric measures
	workloads []string // workloads that exercise the layer; elsewhere it reads 0
	moves     []move
}

// catalog holds every per-layer metric. Time-valued quantities of a
// layer only some workloads reach are reported as shares, never as
// times, so no time-unit metric reads a constant 0 on any workload.
var catalog = map[string]layerMetric{
	"go.gc_pause_ms":     {"Go runtime", allWorkloads, []move{{"us_per_op_p90", wDetached}, {"ops_per_s", wObserved}}},
	"go.gc_cycles_per_s": {"Go runtime", allWorkloads, []move{{"ops_per_s", wDetached}, {"ops_per_s", wObserved}}},
	"go.gc_cpu_frac":     {"Go runtime", allWorkloads, []move{{"ops_per_s", wDetached}, {"allocs_per_op", wDetached}}},

	"sim.call_ms_p50": {"internal/sim", allWorkloads, []move{{"us_per_op_p50", wDetached}, {"us_per_op_p50", wCampaign}}},
	"sim.call_ms_p90": {"internal/sim", allWorkloads, []move{{"us_per_op_p90", wDetached}, {"us_per_op_p90", wServe}}},

	"sim.events_pct":   {"internal/sim", suites, []move{{"ops_per_s", wDetached}, {"us_per_op_p50", wDetached}}},
	"sim.issue_pct":    {"internal/sim", suites, []move{{"ops_per_s", wDetached}, {"us_per_op_p50", wDetached}}},
	"sim.collect_pct":  {"internal/sim", suites, []move{{"ops_per_s", wDetached}, {"us_per_op_p50", wDetached}}},
	"sim.banks_pct":    {"internal/sim", suites, []move{{"ops_per_s", wDetached}, {"us_per_op_p50", wDetached}}},
	"sim.adaptive_pct": {"internal/sim", suites, []move{{"ops_per_s", wDetached}, {"us_per_op_p50", wDetached}}},
	"sim.new_pct":      {"internal/sim", suites, []move{{"us_per_op_p50", wDetached}}},
	"sim.unphased_pct": {"internal/sim", suites, []move{{"us_per_op_p50", wDetached}}},

	"sim.telemetry_pct": {"internal/telemetry", suites, []move{{"ops_per_s", wObserved}}},
	"sim.energy_pct":    {"internal/energy", suites, []move{{"ops_per_s", wObserved}}},
	"sim.record_pct":    {"internal/flightrec", suites, []move{{"ops_per_s", wObserved}}},

	"sim.skippable_frac":              {"internal/sim", suites, []move{{"us_per_op_p90", wDetached}}},
	"sim.ipc":                         {"internal/sim", suites, []move{{"us_per_op_p90", wDetached}}},
	"sim.issue_util":                  {"internal/sim", suites, []move{{"us_per_op_p90", wDetached}}},
	"sim.collector_stalls_per_kinstr": {"internal/sim", suites, []move{{"us_per_op_p90", wDetached}}},
	"sim.bank_queue_avg":              {"internal/sim", suites, []move{{"us_per_op_p90", wDetached}}},
	"sim.cycles":                      {"internal/sim", suites, []move{{"us_per_op_p50", wDetached}}},

	"regfile.frf_share":           {"internal/regfile", suites, []move{{"ops_per_s", wDetached}}},
	"regfile.frf_low_share":       {"internal/regfile", suites, []move{{"ops_per_s", wDetached}}},
	"profile.pilot_fraction":      {"internal/profile", suites, []move{{"ops_per_s", wDetached}}},
	"rfc.hit_rate":                {"internal/rfc", suites, []move{{"ops_per_s", wDetached}}},
	"rf.energy_saving_pct":        {"internal/energy", suites, []move{{"ops_per_s", wDetached}}},
	"rf.cycle_overhead_pct":       {"internal/regfile", suites, []move{{"us_per_op_p50", wDetached}}},
	"flightrec.events_per_winstr": {"internal/flightrec", observedOnly, []move{{"ops_per_s", wObserved}}},
	"trace.events_per_winstr":     {"sim Tracer", observedOnly, []move{{"ops_per_s", wObserved}}},

	"jobs.cache_hit_ratio":  {"internal/jobs", jobWorkloads, []move{{"ops_per_s", wCampaign}, {"us_per_op_p50", wServe}}},
	"jobs.pool_wait_frac":   {"internal/jobs", jobWorkloads, []move{{"us_per_op_p90", wCampaign}}},
	"jobs.steals_per_ktask": {"internal/jobs", jobWorkloads, []move{{"ops_per_s", wCampaign}}},

	"campaign.cells_cached_frac": {"internal/campaign", jobWorkloads, []move{{"ops_per_s", wCampaign}}},
	"campaign.golden_frac":       {"internal/campaign", jobWorkloads, []move{{"us_per_op_p50", wCampaign}}},
	"fault.injected_per_trial":   {"internal/fault", jobWorkloads, []move{{"ops_per_s", wCampaign}}},
	"fault.sdc_frac":             {"internal/fault", jobWorkloads, []move{{"us_per_op_p90", wCampaign}}},

	"serve.submit_frac":     {"cmd/pilotserve", serveWorkload, []move{{"us_per_op_p50", wServe}}},
	"serve.first_line_frac": {"cmd/pilotserve", serveWorkload, []move{{"us_per_op_p50", wServe}}},
	"serve.queue_wait_frac": {"cmd/pilotserve", serveWorkload, []move{{"us_per_op_p90", wServe}}},
	"serve.rejected_frac":   {"cmd/pilotserve", serveWorkload, []move{{"ops_per_s", wServe}}},

	"traced.ops_per_s": {"internal/trace", allWorkloads, []move{
		{"ops_per_s", wDetached}, {"ops_per_s", wObserved}, {"ops_per_s", wCampaign}, {"ops_per_s", wServe}}},
}

// applies reports whether a metric is measured on a workload. Every
// end-to-end metric is measured on every workload.
func applies(s *benchSpec, name, workload string) bool {
	lm, ok := catalog[name]
	if !ok {
		_, e2e := s.metric(name)
		return e2e
	}
	for _, w := range lm.workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// checkCatalog requires the catalog and BENCHMARK.json to describe the
// same per-layer metrics, and every moves pair to name a real
// end-to-end metric and workload.
func checkCatalog(s *benchSpec) error {
	declared := map[string]bool{}
	for _, m := range s.PerLayer {
		declared[m.Name] = true
		if _, ok := catalog[m.Name]; !ok {
			return fmt.Errorf("per-layer metric %q is missing from the catalog", m.Name)
		}
	}
	e2e := map[string]bool{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = true
	}
	workloads := map[string]bool{}
	for _, w := range s.Workloads {
		workloads[w.Name] = true
	}
	names := make([]string, 0, len(catalog))
	for name := range catalog {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lm := catalog[name]
		if !declared[name] {
			return fmt.Errorf("catalog metric %q is not declared in %s", name, specFile)
		}
		if len(lm.moves) == 0 {
			return fmt.Errorf("per-layer metric %q names no end-to-end metric it moves", name)
		}
		for _, w := range lm.workloads {
			if !workloads[w] {
				return fmt.Errorf("per-layer metric %q: unknown workload %q", name, w)
			}
		}
		for _, mv := range lm.moves {
			if !e2e[mv.metric] || !workloads[mv.workload] {
				return fmt.Errorf("per-layer metric %q moves (%s, %s), which is not an end-to-end metric and workload",
					name, mv.metric, mv.workload)
			}
		}
	}
	return nil
}
