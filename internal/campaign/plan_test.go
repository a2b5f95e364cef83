package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"pilotrf/internal/jobs"
)

// planSpec is a small two-cell-per-axis grid that still exercises
// multiple designs, workloads, and schemes.
func planSpec() Spec {
	return Spec{
		Benchmarks: []string{"sgemm", "nw"},
		Designs:    []string{"part-adaptive", "mrf-ntv"},
		Protect:    []string{"none", "parity"},
		Trials:     2,
		Seed:       42,
		SMs:        1,
	}
}

func runSpec(tb testing.TB, spec Spec, cache *jobs.Cache) Report {
	tb.Helper()
	pool, err := jobs.New(jobs.Config{Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	defer pool.Close()
	rep, err := Run(context.Background(), spec, Options{Pool: pool, Cache: cache})
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// TestPlanCanonicalOrder pins the plan's cell enumeration to Run's
// report order.
func TestPlanCanonicalOrder(t *testing.T) {
	pl, err := NewPlan(planSpec())
	if err != nil {
		t.Fatal(err)
	}
	rep := runSpec(t, planSpec(), nil)
	if pl.NumCells() != len(rep.Cells) {
		t.Fatalf("plan has %d cells, report has %d", pl.NumCells(), len(rep.Cells))
	}
	for i, c := range rep.Cells {
		ref := pl.Cell(i)
		if ref.Index != i || ref.Design != c.Design || ref.Workload != c.Workload || ref.Protect != c.Protection {
			t.Errorf("cell %d: plan %+v, report %s/%s/%s", i, ref, c.Design, c.Protection, c.Workload)
		}
		if !pl.ValidCell(i, c) {
			t.Errorf("cell %d: report cell does not validate against its own ref", i)
		}
	}
	if pl.NumJobs() == 0 {
		t.Fatal("NumJobs = 0")
	}
	if n, err := planSpec().NumJobs(); err != nil || n != pl.NumJobs() {
		t.Fatalf("Plan.NumJobs %d, Spec.NumJobs %d (%v)", pl.NumJobs(), n, err)
	}
}

// TestCellSpecMatchesFullRun is the sharding contract: every cell run
// in isolation from its single-cell spec must equal the same cell of
// the full run, and must land in the cache under the full run's key.
func TestCellSpecMatchesFullRun(t *testing.T) {
	pl, err := NewPlan(planSpec())
	if err != nil {
		t.Fatal(err)
	}
	full := runSpec(t, planSpec(), nil)
	var got []Cell
	for i := 0; i < pl.NumCells(); i++ {
		cache, err := jobs.OpenCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sub := runSpec(t, pl.CellSpec(i), cache)
		if len(sub.Cells) != 1 {
			t.Fatalf("cell %d: sub-spec ran %d cells", i, len(sub.Cells))
		}
		if sub.Cells[0] != full.Cells[i] {
			t.Errorf("cell %d: isolated run %+v != full run %+v", i, sub.Cells[0], full.Cells[i])
		}
		// The isolated run must have cached its cell under the key the
		// plan (and a full run) would look it up by.
		var cached Cell
		if !cache.Get(pl.CellKey(i), &cached) {
			t.Errorf("cell %d: isolated run did not cache under the plan's CellKey", i)
		} else if cached != full.Cells[i] {
			t.Errorf("cell %d: cached %+v != full run %+v", i, cached, full.Cells[i])
		}
	}
	for i := range full.Cells {
		got = append(got, full.Cells[i])
	}
	asm := pl.Assemble(got)
	a, _ := json.MarshalIndent(asm, "", "  ")
	b, _ := json.MarshalIndent(full, "", "  ")
	if !bytes.Equal(a, b) {
		t.Fatalf("assembled report differs from full run:\n%s\n---\n%s", a, b)
	}
}

// TestPlanResumeFromCache: a full run's cache satisfies every cell of a
// fresh plan (what coordinator crash-resume replays).
func TestPlanResumeFromCache(t *testing.T) {
	dir := t.TempDir()
	cache, err := jobs.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	full := runSpec(t, planSpec(), cache)
	pl, err := NewPlan(planSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pl.NumCells(); i++ {
		var c Cell
		if !cache.Get(pl.CellKey(i), &c) {
			t.Fatalf("cell %d: no cache entry under CellKey", i)
		}
		if !pl.ValidCell(i, c) {
			t.Fatalf("cell %d: cached cell %+v fails ValidCell", i, c)
		}
		if c != full.Cells[i] {
			t.Fatalf("cell %d: cached %+v != report %+v", i, c, full.Cells[i])
		}
	}
	// A mismatched cell (wrong position) must fail validation.
	var c0 Cell
	cache.Get(pl.CellKey(0), &c0)
	if pl.NumCells() > 1 && pl.ValidCell(1, c0) {
		t.Fatal("cell 0's result validated as cell 1")
	}
	// An entry without its payload hits but reads as a zero cell, which
	// fails validation, so a resume (a fresh Cache) recomputes that cell.
	stripPayload(t, filepath.Join(dir, pl.CellKey(0).Hex()+".json"))
	var z Cell
	if !openCache(t, dir).Get(pl.CellKey(0), &z) || pl.ValidCell(0, z) {
		t.Fatalf("payload-less cell 0 entry: read %+v, want a hit that fails ValidCell", z)
	}
}
