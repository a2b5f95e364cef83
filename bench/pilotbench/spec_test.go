package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestBenchmarkJSONIsValid(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != allWorkloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, allWorkloads[i])
		}
	}
	// A full comparison makes 4 + 22 runs per workload and two cold
	// builds; all of them must fit in 3420 s. A run's timed phase never
	// outlasts wallLimit × run_seconds; the rest is the overhead measured
	// on the reference host, with a margin.
	runs := 4 + 22*len(spec.Workloads)
	worst := float64(runs)*(wallLimit*float64(spec.RunSeconds)+maxRunOverhead) + 2*maxColdBuild
	if worst > 3420 {
		t.Errorf("%d runs of at most %.0f s plus overhead take %.0f s, over the 3420 s cap",
			runs, wallLimit*float64(spec.RunSeconds), worst)
	}
}

// Measured on the reference host (2 vCPUs, Go 1.24), with margin: a
// cold build of pilotbench and pilotserve by bench/run.sh took 23 s; a
// run's wall-clock time outside its timed phase (the cached build,
// process starts, nine set-ups, the untimed checks) was at most 2.2 s
// over 80 untraced runs and 5.3 s over 20 traced ones.
const (
	maxColdBuild   = 45.0
	maxRunOverhead = 5.5
)

// mutate applies f to the parsed BENCHMARK.json and re-encodes it.
func mutate(t *testing.T, f func(m map[string]interface{})) []byte {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	f(m)
	if b, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	return b
}

func list(m map[string]interface{}, key string) []interface{} { return m[key].([]interface{}) }

func entry(m map[string]interface{}, key string, i int) map[string]interface{} {
	return list(m, key)[i].(map[string]interface{})
}

func TestSpecValidationRejects(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		f          func(m map[string]interface{})
	}{
		{"unknown key", "unknown field", func(m map[string]interface{}) { m["seeds"] = []int{1, 7} }},
		{"bad metric name", "malformed or repeated", func(m map[string]interface{}) {
			entry(m, "end_to_end", 1)["name"] = "ops per s"
		}},
		{"repeated metric", "malformed or repeated", func(m map[string]interface{}) {
			entry(m, "per_layer", 1)["name"] = entry(m, "per_layer", 0)["name"]
		}},
		{"bound too large", "bound", func(m map[string]interface{}) { entry(m, "end_to_end", 1)["bound"] = 0.3 }},
		{"per-layer bound", "carries a bound", func(m map[string]interface{}) { entry(m, "per_layer", 0)["bound"] = 0.1 }},
		{"too many workloads", "workloads", func(m map[string]interface{}) {
			m["workloads"] = append(list(m, "workloads"), map[string]interface{}{"name": "extra", "why": "x"})
		}},
		{"too many end-to-end metrics", "end-to-end metrics", func(m map[string]interface{}) {
			for i := 0; i < maxEndToEnd; i++ {
				m["end_to_end"] = append(list(m, "end_to_end"),
					map[string]interface{}{"name": "m" + strings.Repeat("x", i), "unit": "s", "better": "lower", "bound": 0.1})
			}
		}},
		{"too many per-layer metrics", "per-layer metrics", func(m map[string]interface{}) {
			for i := 0; i < maxPerLayer; i++ {
				m["per_layer"] = append(list(m, "per_layer"),
					map[string]interface{}{"name": "m" + strings.Repeat("x", i%60) + string(rune('a'+i/60)), "unit": "s", "better": "lower"})
			}
		}},
		{"undeclared catalog metric", "not declared", func(m map[string]interface{}) {
			m["per_layer"] = list(m, "per_layer")[1:]
		}},
		{"moves names a missing end-to-end metric", "moves", func(m map[string]interface{}) {
			var keep []interface{}
			for _, e := range list(m, "end_to_end") {
				if e.(map[string]interface{})["name"] != "us_per_op_p90" {
					keep = append(keep, e)
				}
			}
			m["end_to_end"] = keep
		}},
		{"setup_s missing", "setup_s", func(m map[string]interface{}) {
			m["end_to_end"] = list(m, "end_to_end")[1:]
		}},
	} {
		_, err := parseSpec(mutate(t, tc.f))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
