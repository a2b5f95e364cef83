package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pilotrf/internal/campaign"
)

// campaignArgs is a small two-cell campaign that still exercises every
// classification path cheaply.
func campaignArgs(extra ...string) []string {
	base := []string{
		"-bench", "sgemm", "-designs", "part-adaptive",
		"-protect", "none,parity,secded", "-trials", "3",
		"-rate", "2e-11", "-seed", "42", "-sms", "1",
	}
	return append(base, extra...)
}

// TestCampaignReportByteDeterminism is the acceptance property: the same
// -seed must reproduce a byte-identical report.
func TestCampaignReportByteDeterminism(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	var out bytes.Buffer
	if err := run(campaignArgs("-out", a), &out); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := run(campaignArgs("-out", b), &out); err != nil {
		t.Fatalf("second run: %v", err)
	}
	ab, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Error("same seed produced different reports")
	}

	c := filepath.Join(dir, "c.json")
	if err := run(campaignArgs("-out", c, "-seed", "43"), &out); err != nil {
		t.Fatalf("reseeded run: %v", err)
	}
	cb, err := os.ReadFile(c)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ab, cb) {
		t.Error("different seeds produced identical reports (seed unused?)")
	}
}

// TestCampaignReportShape parses the report and checks the schema tag,
// cell coverage, and that every trial was classified exactly once.
func TestCampaignReportShape(t *testing.T) {
	var out bytes.Buffer
	if err := run(campaignArgs(), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep campaign.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Schema != campaign.Schema {
		t.Errorf("schema = %q, want %q", rep.Schema, campaign.Schema)
	}
	if len(rep.Cells) != 3 {
		t.Fatalf("cells = %d, want 1 design x 3 schemes x 1 workload", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		o := c.Outcomes
		if got := o.Masked + o.Corrected + o.DetectedUnrecoverable + o.SDC; got != rep.Trials {
			t.Errorf("%s/%s: %d classified outcomes, want %d", c.Design, c.Protection, got, rep.Trials)
		}
	}
}

// TestCampaignProtectionOrdering: on the same seeded strikes, SECDED
// must never produce SDC or aborts, and the unprotected cell must never
// report corrections — the classification must reflect the scheme.
func TestCampaignProtectionOrdering(t *testing.T) {
	var out bytes.Buffer
	if err := run(campaignArgs("-trials", "4", "-rate", "1e-10"), &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	var rep campaign.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]campaign.Cell{}
	for _, c := range rep.Cells {
		byScheme[c.Protection] = c
	}
	if c := byScheme["secded"]; c.Outcomes.SDC != 0 || c.Outcomes.DetectedUnrecoverable != 0 {
		t.Errorf("secded cell leaked failures: %+v", c.Outcomes)
	}
	if c := byScheme["none"]; c.Outcomes.Corrected != 0 || c.Outcomes.DetectedUnrecoverable != 0 {
		t.Errorf("unprotected cell claims protection outcomes: %+v", c.Outcomes)
	}
	if byScheme["none"].Outcomes.SDC == 0 {
		t.Error("unprotected cell saw no SDC at a rate chosen to corrupt")
	}
	if byScheme["secded"].Corrected == 0 {
		t.Error("secded cell corrected nothing at a rate chosen to strike")
	}
}

// TestCampaignRunawayClassifiedSDC pins the watchdog path with a cell
// observed in the wild: one of these seeded trials corrupts kmeans
// control flow into a runaway loop. Without the golden-derived
// MaxCycles budget this cell burned the simulator's default 200M-cycle
// limit and then failed the whole campaign; with it, the runaway aborts
// in milliseconds and classifies as SDC like any other silent
// corruption.
func TestCampaignRunawayClassifiedSDC(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-bench", "kmeans", "-designs", "part", "-protect", "none",
		"-trials", "5", "-rate", "2e-11", "-seed", "1", "-sms", "2",
	}, &out)
	if err != nil {
		t.Fatalf("runaway trial escaped classification: %v", err)
	}
	var rep campaign.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	o := rep.Cells[0].Outcomes
	if got := o.Masked + o.Corrected + o.DetectedUnrecoverable + o.SDC; got != rep.Trials {
		t.Fatalf("%d classified outcomes, want %d", got, rep.Trials)
	}
	if o.SDC == 0 {
		t.Error("runaway cell reported no SDC")
	}
}

// TestCampaignBadFlags: usage errors must name the offending value.
func TestCampaignBadFlags(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-designs", "bogus"},
		{"-protect", "chipkill"},
		{"-trials", "0"},
		{"-rate", "-1"},
		{"-bench", "no-such-bench"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestCampaignParallelByteIdentical is the PR's acceptance property at
// the CLI level: -parallel N merges results in canonical submission
// order, so the report bytes match -parallel 1 exactly.
func TestCampaignParallelByteIdentical(t *testing.T) {
	dir := t.TempDir()
	seqPath := filepath.Join(dir, "seq.json")
	parPath := filepath.Join(dir, "par.json")
	var out bytes.Buffer
	if err := run(campaignArgs("-parallel", "1", "-out", seqPath), &out); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if err := run(campaignArgs("-parallel", "4", "-out", parPath), &out); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	seq, err := os.ReadFile(seqPath)
	if err != nil {
		t.Fatal(err)
	}
	par, err := os.ReadFile(parPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, par) {
		t.Error("-parallel 4 report differs from -parallel 1")
	}

	// The verbose table must be byte-identical too: it prints the
	// report's cells, which are in canonical order, not completion order.
	var seqTab, parTab bytes.Buffer
	if err := run(campaignArgs("-parallel", "1", "-v", "-out", seqPath), &seqTab); err != nil {
		t.Fatal(err)
	}
	if err := run(campaignArgs("-parallel", "4", "-v", "-out", parPath), &parTab); err != nil {
		t.Fatal(err)
	}
	if seqTab.String() != parTab.String() {
		t.Errorf("verbose tables differ:\n--- seq\n%s--- par\n%s", seqTab.String(), parTab.String())
	}
}

// TestCampaignCacheDir: a warm -cache-dir reproduces the identical
// report, and corrupting the cache degrades to recomputation with the
// same bytes — never a crash or a poisoned report.
func TestCampaignCacheDir(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	cold := filepath.Join(dir, "cold.json")
	warm := filepath.Join(dir, "warm.json")
	var out bytes.Buffer
	if err := run(campaignArgs("-cache-dir", cacheDir, "-out", cold), &out); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if err := run(campaignArgs("-cache-dir", cacheDir, "-out", warm), &out); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	coldB, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	warmB, err := os.ReadFile(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldB, warmB) {
		t.Error("warm-cache report differs from cold report")
	}

	// Trash every entry: bad entry => recompute, not crash.
	ents, err := os.ReadDir(cacheDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("cache dir unreadable or empty: %v", err)
	}
	for _, e := range ents {
		if err := os.WriteFile(filepath.Join(cacheDir, e.Name()), []byte("{broken"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	healed := filepath.Join(dir, "healed.json")
	if err := run(campaignArgs("-cache-dir", cacheDir, "-out", healed), &out); err != nil {
		t.Fatalf("run over corrupted cache: %v", err)
	}
	healedB, err := os.ReadFile(healed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldB, healedB) {
		t.Error("recomputed-after-corruption report differs")
	}
}

// TestCampaignProfileFlags runs a tiny campaign with -cpuprofile and
// -memprofile. Both files must be non-empty gzip, the encoding of a
// pprof profile, and the report and the -v table must be the bytes of
// the same campaign run without the flags.
func TestCampaignProfileFlags(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-bench", "sgemm", "-designs", "part-adaptive", "-protect", "none",
		"-trials", "2", "-sms", "1", "-v"}
	var plain, profiled bytes.Buffer
	if err := run(args, &plain); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := run(append(args, "-cpuprofile", cpu, "-memprofile", mem), &profiled); err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Errorf("profiling changed stdout:\n--- plain\n%s--- profiled\n%s", plain.String(), profiled.String())
	}
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s is not gzip: %v", filepath.Base(p), err)
		}
		body, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(p), err)
		}
		if len(body) == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}
