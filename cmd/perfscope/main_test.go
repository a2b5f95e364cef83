package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/perfscope"
	"pilotrf/internal/sim"
	"pilotrf/internal/workloads"
)

// sweep runs the driver with the given worker count and returns the
// stdout table and the report bytes.
func sweep(t *testing.T, parallel string) (string, []byte) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout bytes.Buffer
	err := run([]string{
		"-bench", "sgemm,BFS", "-designs", "part,part-adaptive",
		"-sms", "1", "-scale", "0.1", "-parallel", parallel, "-out", out,
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), data
}

// TestSweepReproducibleAcrossWorkers is the acceptance gate: the
// census-only report and the stdout table are byte-identical whatever
// the worker count.
func TestSweepReproducibleAcrossWorkers(t *testing.T) {
	tbl1, rep1 := sweep(t, "1")
	tbl4, rep4 := sweep(t, "4")
	if tbl1 != tbl4 {
		t.Errorf("stdout differs across worker counts:\n--- 1\n%s\n--- 4\n%s", tbl1, tbl4)
	}
	if !bytes.Equal(rep1, rep4) {
		t.Error("report bytes differ across worker counts")
	}

	r, err := perfscope.Read(bytes.NewReader(rep1))
	if err != nil {
		t.Fatalf("report does not validate: %v", err)
	}
	if len(r.Entries) != 4 {
		t.Fatalf("report has %d entries, want 4 (2 benchmarks x 2 designs)", len(r.Entries))
	}
	for i := 1; i < len(r.Entries); i++ {
		a, b := r.Entries[i-1], r.Entries[i]
		if a.Workload > b.Workload || (a.Workload == b.Workload && a.Design >= b.Design) {
			t.Errorf("entries out of canonical order at %d: %s/%s then %s/%s",
				i, a.Workload, a.Design, b.Workload, b.Design)
		}
	}
	for _, e := range r.Entries {
		if e.Census.SMCycles == 0 {
			t.Errorf("%s/%s observed no cycles", e.Workload, e.Design)
		}
		if e.Wall != nil {
			t.Errorf("%s/%s: census-only sweep carries a wall section", e.Workload, e.Design)
		}
	}
	// The stdout table names every cell plus the total row.
	for _, want := range []string{"sgemm", "BFS", "part-adaptive", "total"} {
		if !strings.Contains(tbl1, want) {
			t.Errorf("table missing %q:\n%s", want, tbl1)
		}
	}
}

// TestSweepWallClock: -wallclock attaches wall sections and prints the
// phase split; the report still validates.
func TestSweepWallClock(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout bytes.Buffer
	err := run([]string{
		"-bench", "sgemm", "-designs", "part", "-sms", "1", "-scale", "0.1",
		"-wallclock", "-out", out,
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "wall-clock phase split") {
		t.Errorf("no phase split printed:\n%s", stdout.String())
	}
	r, err := perfscope.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Entries) != 1 || r.Entries[0].Wall == nil {
		t.Fatalf("wallclock sweep lost its wall section: %+v", r.Entries)
	}
	if r.Entries[0].Wall.TotalNS <= 0 {
		t.Error("wall section recorded no time")
	}
}

// TestSweepBadFlags: unknown designs and benchmarks are usage errors.
func TestSweepBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-designs", "warp9"},
		{"-bench", "no-such-bench"},
		{"-parallel", "0"},
		{"-sms", "-1"},
		{"-scale", "0"},
	} {
		var stdout bytes.Buffer
		err := run(args, &stdout)
		if err == nil {
			t.Errorf("args %v accepted", args)
			continue
		}
		if _, ok := err.(usageError); !ok {
			t.Errorf("args %v: error %v is not a usageError", args, err)
		}
	}
}

// TestSweepRunsSchemeSettings: a scheme whose settings go beyond its
// base RF (rfc-hints: an RFC under the two-level scheduler in front of
// an NTV MRF) is profiled with those settings. Its census SM-cycles
// equal a direct WithScheme run and differ from mrf-ntv's.
func TestSweepRunsSchemeSettings(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	err := run([]string{
		"-bench", "sgemm", "-designs", "mrf-ntv,rfc-hints", "-sms", "1", "-scale", "0.05", "-out", out,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r, err := perfscope.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, e := range r.Entries {
		got[e.Design] = e.Census.SMCycles
	}

	sch := design.MustLookup("rfc-hints")
	cfg, err := sim.DefaultConfig().WithScheme(sch, sch.DefaultKnobs())
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumSMs = 1
	p := perfscope.New(false)
	cfg.Perf = p
	w, err := workloads.ByName("sgemm")
	if err != nil {
		t.Fatal(err)
	}
	w = w.Scale(0.05)
	g, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunKernels(w.Name, w.Kernels); err != nil {
		t.Fatal(err)
	}
	if want := p.Census().SMCycles; got["rfc-hints"] != want {
		t.Errorf("rfc-hints census %d SM-cycles, a direct WithScheme run %d", got["rfc-hints"], want)
	}
	if got["rfc-hints"] == got["mrf-ntv"] {
		t.Errorf("rfc-hints profiled as its base MRF: %d SM-cycles, like mrf-ntv", got["rfc-hints"])
	}
}
