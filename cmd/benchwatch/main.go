// Command benchwatch is the perf-observability instrument for the
// simulator itself: it records multi-sample benchmark runs into an
// append-only pilotrf-benchhistory/v1 store, gates one run against
// another, and renders the full history as a trend report.
//
// Usage:
//
//	benchwatch record -history h.ndjson -label PR8 [-samples n]
//	                  [-commit rev] [-time-unix t]
//	benchwatch gate   -history h.ndjson [-alpha f] [-min-effect f] [-v]
//	                  oldLabel newLabel
//	benchwatch report -history h.ndjson -out report.md [-svg-dir dir]
//
// record runs the root bench suite N times and appends one history
// record holding the per-benchmark ns/op sample vectors plus the
// deterministic metric map; it is the only writer of the history. A
// taken label or an unreadable history is refused before the first
// pass. Deterministic metrics must be bit-identical across samples;
// variance in them is reported as a violation (exit 1), never averaged
// away.
//
// gate compares two recorded runs: deterministic metrics must match
// exactly (bit-for-bit), and ns/op sample vectors are tested with a
// deterministic exact Mann-Whitney U test — a regression verdict needs
// p < alpha AND a median change of at least -min-effect. Wall-clock
// verdicts demote to informational when the two runs carry different
// host fingerprints. Given fixed history bytes the gate output is
// byte-identical across invocations: no clocks, no randomness.
//
// report writes a markdown trend table over the whole history plus one
// SVG sparkline per benchmark, annotating statistically significant
// regressions and improvements. Equally deterministic: committing the
// report alongside the history keeps both regenerable.
//
// Exit status: 0 clean, 1 violations (gate) or recording violations
// (record), 2 usage or read errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pilotrf/internal/benchstat"
	"pilotrf/internal/benchstore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

const usage = `usage: benchwatch <record|gate|report> [flags]
  record -history h.ndjson -label L [-samples n] [-commit rev] [-time-unix t]
  gate   -history h.ndjson [-alpha f] [-min-effect f] [-v] oldLabel newLabel
  report -history h.ndjson -out report.md [-svg-dir dir]`

func run(args []string, stdout io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, usage)
		return 2
	}
	switch args[0] {
	case "record":
		return runRecord(args[1:], stdout)
	case "gate":
		return runGate(args[1:], stdout)
	case "report":
		return runReport(args[1:], stdout)
	default:
		fmt.Fprintf(os.Stderr, "benchwatch: unknown subcommand %q\n%s\n", args[0], usage)
		return 2
	}
}

// ---------------------------------------------------------------- record

func runRecord(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchwatch record", flag.ContinueOnError)
	history := fs.String("history", "", "history file to append to (required)")
	label := fs.String("label", "", "run label (required, unique within the history)")
	samples := fs.Int("samples", 5, "harness passes to run; 5 gives Mann-Whitney a minimum attainable p of 0.008")
	commit := fs.String("commit", "", "git revision recorded with the run")
	timeUnix := fs.Int64("time-unix", 0, "injected timestamp (0 = now)")
	harnessCmd := fs.String("harness-cmd", "", "override the bench command (testing escape hatch)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *history == "" || *label == "" || fs.NArg() != 0 || *samples < 1 {
		fmt.Fprintln(os.Stderr, usage)
		return 2
	}

	// One real sample takes minutes, so refuse a taken label or an
	// unreadable history before the first pass. AppendRecordFile checks
	// both again when it writes.
	if h, err := benchstore.ReadHistoryFile(*history); err == nil {
		if _, taken := h.ByLabel(*label); taken {
			fmt.Fprintf(os.Stderr, "benchwatch: run label %q already recorded in %s\n", *label, *history)
			return 2
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	suite := harness{command: strings.Fields(*harnessCmd)}
	runs := make([][]benchstore.Benchmark, 0, *samples)
	for i := 1; i <= *samples; i++ {
		fmt.Fprintf(os.Stderr, "sample %d/%d: %s\n", i, *samples, suite.commandLine())
		benches, err := suite.runSample()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		runs = append(runs, benches)
	}

	when := *timeUnix
	if when == 0 {
		when = time.Now().Unix()
	}
	rec, err := benchstore.MergeSamples(*label, *commit, when, benchstore.CurrentHost(), runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		var ve *benchstore.VarianceError
		if errors.As(err, &ve) {
			fmt.Fprintln(os.Stderr, "deterministic-metric variance across samples is a simulator bug, not noise; nothing was recorded")
			return 1
		}
		return 2
	}
	if err := benchstore.AppendRecordFile(*history, rec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "recorded %q: %d benchmarks x %d samples -> %s\n",
		*label, len(rec.Benchmarks), *samples, *history)
	return 0
}

// ------------------------------------------------------------------ gate

func runGate(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchwatch gate", flag.ContinueOnError)
	history := fs.String("history", "", "history file to gate from (required)")
	alpha := fs.Float64("alpha", 0.05, "Mann-Whitney significance level, in (0, 1)")
	minEffect := fs.Float64("min-effect", 0.10, "minimum relative median ns/op change to flag (0.10 = 10%)")
	verbose := fs.Bool("v", false, "print unchanged benchmarks too")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *history == "" || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, usage)
		return 2
	}
	if !(*alpha > 0 && *alpha < 1) {
		fmt.Fprintf(os.Stderr, "benchwatch: -alpha %v outside (0, 1)\n", *alpha)
		return 2
	}
	if *minEffect < 0 || math.IsNaN(*minEffect) {
		fmt.Fprintf(os.Stderr, "benchwatch: -min-effect %v must be >= 0\n", *minEffect)
		return 2
	}
	h, err := benchstore.ReadHistoryFile(*history)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	oldRec, ok := h.ByLabel(fs.Arg(0))
	if !ok {
		fmt.Fprintf(os.Stderr, "benchwatch: run label %q not in %s (have: %s)\n",
			fs.Arg(0), *history, strings.Join(h.Labels(), ", "))
		return 2
	}
	newRec, ok := h.ByLabel(fs.Arg(1))
	if !ok {
		fmt.Fprintf(os.Stderr, "benchwatch: run label %q not in %s (have: %s)\n",
			fs.Arg(1), *history, strings.Join(h.Labels(), ", "))
		return 2
	}
	return gate(stdout, oldRec, newRec, *alpha, *minEffect, *verbose)
}

// gate prints the comparison and returns 0/1. Pure function of its
// inputs: the output bytes depend only on the two records and the
// parameters.
func gate(w io.Writer, old, cur benchstore.Record, alpha, minEffect float64, verbose bool) int {
	fmt.Fprintf(w, "gate %s -> %s  (alpha %g, min-effect %g, samples %d vs %d)\n",
		old.Label, cur.Label, alpha, minEffect, old.Samples(), cur.Samples())
	sameHost := old.Host.Equal(cur.Host)
	if !sameHost {
		fmt.Fprintf(w, "  note: host fingerprints differ (%s vs %s); wall-clock verdicts are informational\n",
			old.Host, cur.Host)
	}
	minP := benchstat.MinAttainableP(old.Samples(), cur.Samples())
	if minP > alpha {
		fmt.Fprintf(w, "  note: %dv%d samples cannot reach alpha %g (min attainable p %.3g); wall-clock verdicts are informational\n",
			old.Samples(), cur.Samples(), alpha, minP)
	}

	oldBy := make(map[string]benchstore.BenchmarkSamples, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	curBy := make(map[string]benchstore.BenchmarkSamples, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	violations := 0
	for _, name := range sortedKeys(oldBy) {
		ob := oldBy[name]
		cb, ok := curBy[name]
		if !ok {
			fmt.Fprintf(w, "%s: MISSING from %s\n", name, cur.Label)
			violations++
			continue
		}
		printedHeader := false
		header := func() {
			if !printedHeader {
				fmt.Fprintf(w, "%s\n", name)
				printedHeader = true
			}
		}
		if verbose {
			header()
		}

		// Deterministic metrics: exact bit match, or it is a violation.
		for _, k := range sortedKeys(ob.Metrics) {
			if benchstore.Informational(k) {
				continue
			}
			ov := ob.Metrics[k]
			cv, ok := cb.Metrics[k]
			if !ok {
				header()
				fmt.Fprintf(w, "  metric %-30s %12.6g -> MISSING\n", k, ov)
				violations++
				continue
			}
			if math.Float64bits(ov) != math.Float64bits(cv) {
				header()
				if ov == 0 && cv != 0 {
					fmt.Fprintf(w, "  metric %-30s %12.6g -> %-12.6g (new from zero) MISMATCH\n", k, ov, cv)
				} else {
					fmt.Fprintf(w, "  metric %-30s %12.6g -> %-12.6g MISMATCH\n", k, ov, cv)
				}
				violations++
			} else if verbose {
				fmt.Fprintf(w, "  metric %-30s %12.6g ok\n", k, ov)
			}
		}
		for _, k := range sortedKeys(cb.Metrics) {
			if _, ok := ob.Metrics[k]; !ok && !benchstore.Informational(k) {
				header()
				fmt.Fprintf(w, "  metric %-30s NEW (absent from %s)\n", k, old.Label)
				violations++
			}
		}

		// Wall clock: Mann-Whitney on the sample vectors.
		c := benchstat.Compare(ob.NsPerOp, cb.NsPerOp, alpha, minEffect)
		gateable := sameHost && !c.Underpowered(alpha)
		switch {
		case c.Verdict == benchstat.Slower:
			header()
			if gateable {
				fmt.Fprintf(w, "  ns/op  median %.4g -> %.4g  (%+.1f%%, p=%.3g, n=%dv%d) SLOWER\n",
					c.OldMedian, c.NewMedian, c.Effect*100, c.P, len(ob.NsPerOp), len(cb.NsPerOp))
				violations++
			} else {
				fmt.Fprintf(w, "  ns/op  median %.4g -> %.4g  (%+.1f%%, p=%.3g, n=%dv%d) slower (informational)\n",
					c.OldMedian, c.NewMedian, c.Effect*100, c.P, len(ob.NsPerOp), len(cb.NsPerOp))
			}
		case c.Verdict == benchstat.Faster:
			header()
			fmt.Fprintf(w, "  ns/op  median %.4g -> %.4g  (%+.1f%%, p=%.3g, n=%dv%d) faster\n",
				c.OldMedian, c.NewMedian, c.Effect*100, c.P, len(ob.NsPerOp), len(cb.NsPerOp))
		case verbose:
			fmt.Fprintf(w, "  ns/op  median %.4g -> %.4g  (%+.1f%%, p=%.3g, n=%dv%d) ok\n",
				c.OldMedian, c.NewMedian, c.Effect*100, c.P, len(ob.NsPerOp), len(cb.NsPerOp))
		}
	}
	for _, b := range cur.Benchmarks {
		if _, ok := oldBy[b.Name]; !ok {
			fmt.Fprintf(w, "%s: NEW in %s\n", b.Name, cur.Label)
		}
	}

	fmt.Fprintf(w, "%d benchmarks compared, %d violations (alpha %g, min-effect %g)\n",
		len(oldBy), violations, alpha, minEffect)
	if violations > 0 {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------- report

func runReport(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchwatch report", flag.ContinueOnError)
	history := fs.String("history", "", "history file to render (required)")
	out := fs.String("out", "", "markdown output path (required)")
	svgDir := fs.String("svg-dir", "", "sparkline directory (default: <out dir>/sparklines)")
	alpha := fs.Float64("alpha", 0.05, "significance level for regression annotations")
	minEffect := fs.Float64("min-effect", 0.10, "minimum relative median change to annotate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *history == "" || *out == "" || fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, usage)
		return 2
	}
	if !(*alpha > 0 && *alpha < 1) || *minEffect < 0 || math.IsNaN(*minEffect) {
		fmt.Fprintf(os.Stderr, "benchwatch: bad -alpha %v / -min-effect %v\n", *alpha, *minEffect)
		return 2
	}
	h, err := benchstore.ReadHistoryFile(*history)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(h.Records) == 0 {
		fmt.Fprintf(os.Stderr, "benchwatch: %s has no records\n", *history)
		return 2
	}
	dir := *svgDir
	if dir == "" {
		dir = filepath.Join(filepath.Dir(*out), "sparklines")
	}
	if err := writeReport(*out, dir, filepath.Base(*history), h, *alpha, *minEffect); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s and %d sparklines to %s\n", *out, len(benchNames(h)), dir)
	return 0
}

// benchNames returns the sorted union of benchmark names across the
// history.
func benchNames(h benchstore.History) []string {
	seen := map[string]bool{}
	for _, r := range h.Records {
		for _, b := range r.Benchmarks {
			seen[b.Name] = true
		}
	}
	return sortedKeys(seen)
}

// sortedKeys returns m's keys in increasing order, so output built by
// ranging over them is the same on every run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtNS humanizes a ns/op value deterministically.
func fmtNS(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// cellInfo is one rendered table cell plus whether it was flagged as a
// regression (drives the sparkline marker color).
type cellInfo struct {
	text    string
	regress bool
}

// trendCells renders one benchmark's row across the history,
// annotating statistically significant changes vs the previous record
// the benchmark appears in.
func trendCells(h benchstore.History, name string, alpha, minEffect float64) []cellInfo {
	cells := make([]cellInfo, len(h.Records))
	var prev *benchstore.BenchmarkSamples
	var prevHost benchstore.Host
	for i, rec := range h.Records {
		var cur *benchstore.BenchmarkSamples
		for j := range rec.Benchmarks {
			if rec.Benchmarks[j].Name == name {
				cur = &rec.Benchmarks[j]
				break
			}
		}
		if cur == nil {
			cells[i] = cellInfo{text: "—"}
			continue
		}
		s := benchstat.Summarize(cur.NsPerOp)
		text := fmtNS(s.Median)
		if prev != nil {
			c := benchstat.Compare(prev.NsPerOp, cur.NsPerOp, alpha, minEffect)
			gateable := prevHost.Equal(rec.Host) && !c.Underpowered(alpha)
			switch {
			case c.Verdict == benchstat.Slower && gateable:
				text += fmt.Sprintf(" **+%.0f%% ⚠**", c.Effect*100)
				cells[i].regress = true
			case c.Verdict == benchstat.Faster && gateable:
				text += fmt.Sprintf(" −%.0f%% ✓", -c.Effect*100)
			case math.Abs(c.Effect) >= minEffect:
				// Visible shift that the statistics cannot vouch for
				// (single-sample backfill, host change): note it
				// without a verdict.
				text += fmt.Sprintf(" (%+.0f%%)", c.Effect*100)
			}
		}
		cells[i] = cellInfo{text: text, regress: cells[i].regress}
		prev, prevHost = cur, rec.Host
	}
	return cells
}

// sparklineSVG renders a median-ns/op trend as a small SVG: one point
// per record the benchmark appears in, a connecting polyline, and a
// filled marker per point (regressions in red). All coordinates are
// formatted with fixed precision so the bytes are reproducible.
func sparklineSVG(medians []float64, regress []bool) string {
	const (
		width, height = 160.0, 36.0
		pad           = 4.0
	)
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`,
		width, height, width, height)
	sb.WriteString("\n")
	lo, hi := medians[0], medians[0]
	for _, v := range medians {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	x := func(i int) float64 {
		if len(medians) == 1 {
			return width / 2
		}
		return pad + (width-2*pad)*float64(i)/float64(len(medians)-1)
	}
	y := func(v float64) float64 {
		if hi == lo {
			return height / 2
		}
		return height - pad - (height-2*pad)*(v-lo)/(hi-lo)
	}
	if len(medians) > 1 {
		var pts []string
		for i, v := range medians {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x(i), y(v)))
		}
		fmt.Fprintf(&sb, `<polyline fill="none" stroke="#8a8f98" stroke-width="1.5" points="%s"/>`,
			strings.Join(pts, " "))
		sb.WriteString("\n")
	}
	for i, v := range medians {
		color := "#4878d0"
		if regress[i] {
			color = "#d65f5f"
		}
		fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`, x(i), y(v), color)
		sb.WriteString("\n")
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// metricChanges lists deterministic-metric differences between
// consecutive records, in deterministic order.
func metricChanges(h benchstore.History) []string {
	var out []string
	for i := 1; i < len(h.Records); i++ {
		prev, cur := h.Records[i-1], h.Records[i]
		prevBy := map[string]benchstore.BenchmarkSamples{}
		for _, b := range prev.Benchmarks {
			prevBy[b.Name] = b
		}
		var lines []string
		for _, cb := range cur.Benchmarks {
			pb, ok := prevBy[cb.Name]
			if !ok {
				lines = append(lines, fmt.Sprintf("`%s`: new benchmark", cb.Name))
				continue
			}
			for _, k := range sortedKeys(pb.Metrics) {
				if benchstore.Informational(k) {
					continue
				}
				pv := pb.Metrics[k]
				cv, ok := cb.Metrics[k]
				if !ok {
					lines = append(lines, fmt.Sprintf("`%s` %s: %.6g -> metric removed", cb.Name, k, pv))
					continue
				}
				if math.Float64bits(pv) != math.Float64bits(cv) {
					if pv == 0 && cv != 0 {
						lines = append(lines, fmt.Sprintf("`%s` %s: %.6g -> %.6g (new from zero)", cb.Name, k, pv, cv))
					} else {
						lines = append(lines, fmt.Sprintf("`%s` %s: %.6g -> %.6g", cb.Name, k, pv, cv))
					}
				}
			}
		}
		for _, pb := range prev.Benchmarks {
			found := false
			for _, cb := range cur.Benchmarks {
				if cb.Name == pb.Name {
					found = true
					break
				}
			}
			if !found {
				lines = append(lines, fmt.Sprintf("`%s`: benchmark removed", pb.Name))
			}
		}
		if len(lines) > 0 {
			out = append(out, fmt.Sprintf("**%s → %s**: %d change(s)", prev.Label, cur.Label, len(lines)))
			for _, l := range lines {
				out = append(out, "  - "+l)
			}
		}
	}
	return out
}

// writeReport renders the markdown trend report and the sparkline SVGs.
func writeReport(outPath, svgDir, historyName string, h benchstore.History, alpha, minEffect float64) error {
	if err := os.MkdirAll(svgDir, 0o755); err != nil {
		return err
	}
	relSVG, err := filepath.Rel(filepath.Dir(outPath), svgDir)
	if err != nil {
		relSVG = svgDir
	}

	var sb strings.Builder
	sb.WriteString("# pilotrf perf history\n\n")
	fmt.Fprintf(&sb, "Rendered by `benchwatch report` from `%s`; regenerate with\n\n", historyName)
	fmt.Fprintf(&sb, "```sh\ngo run ./cmd/benchwatch report -history %s -out %s -svg-dir %s\n```\n\n",
		historyName, filepath.Base(outPath), relSVG)
	sb.WriteString("The output is a pure function of the history bytes — same input, same bytes out.\n\n")

	sb.WriteString("## Runs\n\n")
	sb.WriteString("| run | date (UTC) | commit | samples | host | source |\n")
	sb.WriteString("|---|---|---|---|---|---|\n")
	for _, r := range h.Records {
		date := time.Unix(r.TimeUnix, 0).UTC().Format("2006-01-02")
		commit := r.Commit
		if commit == "" {
			commit = "—"
		}
		source := r.Source
		if source == "" {
			source = "recorded"
		}
		fmt.Fprintf(&sb, "| %s | %s | `%s` | %d | %s | %s |\n",
			r.Label, date, commit, r.Samples(), r.Host, source)
	}
	sb.WriteString("\n")

	sb.WriteString("## Wall-clock trend (median ns/op per run)\n\n")
	fmt.Fprintf(&sb, "Annotations: `**+x%% ⚠**` = statistically significant regression vs the previous run "+
		"(Mann-Whitney p < %g and ≥ %.0f%% median change), `−x%% ✓` = significant improvement, "+
		"`(±x%%)` = visible shift the sample counts cannot vouch for.\n\n", alpha, minEffect*100)
	sb.WriteString("| benchmark |")
	for _, r := range h.Records {
		fmt.Fprintf(&sb, " %s |", r.Label)
	}
	sb.WriteString(" trend |\n|---|")
	for range h.Records {
		sb.WriteString("---|")
	}
	sb.WriteString("---|\n")

	for _, name := range benchNames(h) {
		cells := trendCells(h, name, alpha, minEffect)
		fmt.Fprintf(&sb, "| `%s` |", name)
		for _, c := range cells {
			fmt.Fprintf(&sb, " %s |", c.text)
		}

		var medians []float64
		var regress []bool
		for i, rec := range h.Records {
			for _, b := range rec.Benchmarks {
				if b.Name == name {
					medians = append(medians, benchstat.Summarize(b.NsPerOp).Median)
					regress = append(regress, cells[i].regress)
					break
				}
			}
		}
		svgName := name + ".svg"
		if err := os.WriteFile(filepath.Join(svgDir, svgName),
			[]byte(sparklineSVG(medians, regress)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&sb, " ![%s](%s) |\n", name, filepath.ToSlash(filepath.Join(relSVG, svgName)))
	}
	sb.WriteString("\n")

	sb.WriteString("## Deterministic metrics\n\n")
	changes := metricChanges(h)
	if len(changes) == 0 {
		sb.WriteString("Bit-identical across every consecutive pair of runs (rate metrics with a `/s` unit " +
			"are wall-clock in disguise and exempt).\n")
	} else {
		sb.WriteString("Changes between consecutive runs (rate metrics with a `/s` unit are exempt):\n\n")
		for _, l := range changes {
			sb.WriteString(l + "\n")
		}
	}

	return os.WriteFile(outPath, []byte(sb.String()), 0o644)
}
