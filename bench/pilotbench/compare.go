package main

import (
	"fmt"
	"io"
	"math"
	"sort"

	"pilotrf/internal/benchstat"
)

// Verdicts of one (metric, workload) comparison.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of pilotbench compare.
type comparison struct {
	metric, workload string
	a, b             benchstat.Summary
	change           float64 // relative change of B's median, positive = better
	spread           float64 // the wider of the two sets' quartile spreads
	bound            float64
	verdict          string
}

// compareMetric applies a metric's bound to two sets of runs. Where the
// run-to-run spread is wider than the bound the result is unresolved,
// unless every run of B reads better than every run of A.
func compareMetric(m metricSpec, a, b []float64) comparison {
	c := comparison{metric: m.Name, a: benchstat.Summarize(a), b: benchstat.Summarize(b), bound: *m.Bound}
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	c.change = sign * (c.b.Median - c.a.Median) / math.Abs(c.a.Median)
	if c.a.Median == 0 {
		c.change = sign * (c.b.Median - c.a.Median)
	}
	sa, errA := relSpread(a)
	sb, errB := relSpread(b)
	c.spread = math.Max(sa, sb)
	allBetter := (m.Better == "lower" && c.b.Max < c.a.Min) || (m.Better == "higher" && c.b.Min > c.a.Max)
	switch {
	case benchstat.AllEqual(append(append([]float64(nil), a...), b...)):
		c.verdict = verdictSame
	case errA != nil || errB != nil: // a single run has no spread to judge
		c.verdict = verdictUnresolved
	case c.spread > c.bound:
		c.verdict = verdictUnresolved
		if allBetter {
			c.verdict = verdictBetter
		}
	case c.change < -c.bound:
		c.verdict = verdictWorse
	case c.change > c.bound:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictSame
	}
	return c
}

// compareSets compares the end-to-end metrics of two sets of untraced
// runs, one row per (metric, workload) present in both.
func compareSets(spec *benchSpec, a, b []record) []comparison {
	group := func(recs []record) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace != 0 {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v.Value)
			}
		}
		return out
	}
	ga, gb := group(a), group(b)
	var rows []comparison
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := ga[w.Name][m.Name], gb[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := compareMetric(m, va, vb)
			c.workload = w.Name
			rows = append(rows, c)
		}
	}
	return rows
}

// runCompare implements `pilotbench compare <setA> <setB>`: each set is
// an -out file, or a directory of them. It exits 1 when any row is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: pilotbench compare <setA> <setB>")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var sets [2][]record
	for i, path := range args {
		if sets[i], err = readRecords(path); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	rows := compareSets(spec, sets[0], sets[1])
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "no (metric, workload) pair has untraced runs in both sets")
		return 2
	}
	fmt.Fprintf(stdout, "%-16s %-16s %3s %14s %3s %14s %8s %7s %6s  %s\n",
		"workload", "metric", "nA", "median A", "nB", "median B", "change", "spread", "bound", "verdict")
	counts := map[string]int{}
	for _, c := range rows {
		fmt.Fprintf(stdout, "%-16s %-16s %3d %14.6g %3d %14.6g %+7.2f%% %6.2f%% %5.1f%%  %s\n",
			c.workload, c.metric, c.a.N, c.a.Median, c.b.N, c.b.Median,
			100*c.change, 100*c.spread, 100*c.bound, c.verdict)
		counts[c.verdict]++
	}
	verdicts := make([]string, 0, len(counts))
	for v := range counts {
		verdicts = append(verdicts, v)
	}
	sort.Strings(verdicts)
	for _, v := range verdicts {
		fmt.Fprintf(stdout, "%s: %d  ", v, counts[v])
	}
	fmt.Fprintln(stdout)
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}
