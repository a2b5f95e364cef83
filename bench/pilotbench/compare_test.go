package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: &bound}
	lower := metricSpec{Name: "us_per_op_p50", Unit: "us", Better: "lower", Bound: &bound}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"identical", higher, []float64{5, 5, 5}, []float64{5, 5, 5}, verdictSame},
		{"within bound", higher, []float64{100, 101, 99, 100}, []float64{96, 97, 95, 96}, verdictSame},
		{"slower", higher, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, verdictWorse},
		{"faster", higher, []float64{100, 101, 99, 100}, []float64{130, 131, 129, 130}, verdictBetter},
		{"latency up", lower, []float64{10, 10.1, 9.9, 10}, []float64{12, 12.1, 11.9, 12}, verdictWorse},
		{"latency down", lower, []float64{10, 10.1, 9.9, 10}, []float64{8, 8.1, 7.9, 8}, verdictBetter},
		{"noisy", higher, []float64{50, 100, 150, 100}, []float64{60, 90, 140, 95}, verdictUnresolved},
		{"noisy but every run better", higher, []float64{50, 60, 70, 55}, []float64{100, 140, 180, 120}, verdictBetter},
		{"one sample", higher, []float64{100}, []float64{100.5}, verdictUnresolved},
	} {
		if got := compareMetric(tc.m, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops ...float64) string {
		for _, v := range ops {
			rec := record{Workload: wDetached, Seed: 1, resultLine: resultLine{Correct: true, Attempted: 1,
				Metrics: map[string]valueUnit{"ops_per_s": {Value: v, Unit: "1/s"}}}}
			if err := appendRecord(filepath.Join(dir, name), rec); err != nil {
				t.Fatal(err)
			}
		}
		return filepath.Join(dir, name)
	}
	a := write("a.ndjson", 100, 101, 99, 100, 100)
	same := write("same.ndjson", 99, 100, 100, 101, 99)
	worse := write("worse.ndjson", 70, 71, 69, 70, 70)
	var out, errs bytes.Buffer
	if code := run(context.Background(), []string{"compare", a, same}, &out, &errs); code != 0 {
		t.Errorf("same sets: exit %d\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), "suite-detached   ops_per_s") || !strings.Contains(out.String(), verdictSame) {
		t.Errorf("compare output lacks the ops_per_s row:\n%s", out.String())
	}
	out.Reset()
	if code := run(context.Background(), []string{"compare", a, worse}, &out, &errs); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("worse set: exit %d\n%s", code, out.String())
	}
	if code := run(context.Background(), []string{"compare", a}, &out, &errs); code != 2 {
		t.Errorf("one argument: exit %d, want 2", code)
	}
	empty := filepath.Join(dir, "empty")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if code := run(context.Background(), []string{"compare", a, empty}, &out, &errs); code != 2 {
		t.Errorf("empty set: exit %d, want 2", code)
	}
}
