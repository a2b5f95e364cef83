package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pilotrf/internal/trace"
)

// TestCampaignTraceSpansFlag: -trace-spans writes a readable, valid
// pilotrf-spans/v1 recording whose deterministic projection is
// byte-identical at -parallel 1 and -parallel 8, and -trace-perfetto
// writes a trace_event document Perfetto can load.
func TestCampaignTraceSpansFlag(t *testing.T) {
	dir := t.TempDir()
	seq := filepath.Join(dir, "seq.ndjson")
	par := filepath.Join(dir, "par.ndjson")
	perf := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	if err := run(campaignArgs("-parallel", "1", "-out", filepath.Join(dir, "a.json"),
		"-trace-spans", seq), &out); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if err := run(campaignArgs("-parallel", "8", "-out", filepath.Join(dir, "b.json"),
		"-trace-spans", par, "-trace-perfetto", perf), &out); err != nil {
		t.Fatalf("parallel run: %v", err)
	}

	seqSpans, err := trace.ReadSpansFile(seq)
	if err != nil {
		t.Fatalf("sequential spans unreadable: %v", err)
	}
	parSpans, err := trace.ReadSpansFile(par)
	if err != nil {
		t.Fatalf("parallel spans unreadable: %v", err)
	}
	if _, err := trace.BuildTree(parSpans); err != nil {
		t.Fatalf("recorded tree invalid: %v", err)
	}

	// Wall-clock sections differ run to run; the deterministic
	// projection must not.
	var sb, pb bytes.Buffer
	if err := trace.WriteSpans(&sb, trace.StripWall(seqSpans)); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSpans(&pb, trace.StripWall(parSpans)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatalf("stripped span tree differs between -parallel 1 and 8:\n--- 1 ---\n%s\n--- 8 ---\n%s", sb.Bytes(), pb.Bytes())
	}

	pfBytes, err := os.ReadFile(perf)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(pfBytes, &doc); err != nil {
		t.Fatalf("perfetto output not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(parSpans) {
		t.Fatalf("perfetto trace has %d events for %d spans", len(doc.TraceEvents), len(parSpans))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "M" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
}

// TestCampaignVerboseCacheSummary: -v ends the run with one cache
// summary line whose numbers flip from all-misses to all-hits on the
// warm pass, which reads only the cells: no cell needs the golden.
func TestCampaignVerboseCacheSummary(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	var cold, warm bytes.Buffer
	if err := run(campaignArgs("-v", "-cache-dir", cacheDir, "-out", filepath.Join(dir, "a.json")), &cold); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if err := run(campaignArgs("-v", "-cache-dir", cacheDir, "-out", filepath.Join(dir, "b.json")), &warm); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	coldLine := lastLine(cold.String())
	warmLine := lastLine(warm.String())
	// Cold: 3 cells and 1 golden. Warm: the 3 cells.
	if !strings.Contains(coldLine, "0 hits, 4 misses (0 corrupt), 4 writes") {
		t.Errorf("cold cache summary %q, want 0 hits / 4 misses / 4 writes", coldLine)
	}
	if !strings.Contains(warmLine, "3 hits, 0 misses (0 corrupt), 0 writes") {
		t.Errorf("warm cache summary %q, want 3 hits / 0 misses / 0 writes", warmLine)
	}
	for _, line := range []string{coldLine, warmLine} {
		if !strings.HasPrefix(line, "cache "+cacheDir+":") {
			t.Errorf("summary line %q does not name the cache dir", line)
		}
	}

	// Without -cache-dir (or without -v) no summary line appears.
	var plain bytes.Buffer
	if err := run(campaignArgs("-v", "-out", filepath.Join(dir, "c.json")), &plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "cache ") {
		t.Error("-v without -cache-dir printed a cache summary")
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return lines[len(lines)-1]
}
