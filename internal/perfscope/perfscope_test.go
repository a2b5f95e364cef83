package perfscope

import (
	"bytes"
	"strings"
	"testing"
)

func TestPhaseString(t *testing.T) {
	if got := PhaseIssue.String(); got != "issue" {
		t.Errorf("PhaseIssue = %q, want issue", got)
	}
	if got := Phase(99).String(); got != "phase_99" {
		t.Errorf("out-of-range phase = %q", got)
	}
	seen := map[string]bool{}
	for p := Phase(0); int(p) < NumPhases; p++ {
		n := p.String()
		if n == "" || strings.HasPrefix(n, "phase_") {
			t.Errorf("phase %d has no name", p)
		}
		if seen[n] {
			t.Errorf("duplicate phase name %q", n)
		}
		seen[n] = true
	}
}

func TestCensusMath(t *testing.T) {
	var zero Census
	if f := zero.SkippableFrac(); f != 0 {
		t.Errorf("empty SkippableFrac = %v, want 0", f)
	}

	c := Census{SMCycles: 100, Skippable: 50}
	if err := c.check(); err != nil {
		t.Fatalf("valid census rejected: %v", err)
	}
	if f := c.SkippableFrac(); f != 0.5 {
		t.Errorf("SkippableFrac = %v, want 0.5", f)
	}

	var sum Census
	sum.Add(c)
	sum.Add(Census{SMCycles: 64, Skippable: 64})
	want := Census{SMCycles: 164, Skippable: 114}
	if sum != want {
		t.Errorf("Add = %+v, want %+v", sum, want)
	}
}

func TestCensusCheckRejects(t *testing.T) {
	for _, c := range []Census{{SMCycles: 10, Skippable: 11}, {Skippable: 1}} {
		if err := c.check(); err == nil {
			t.Errorf("check accepted %+v: more skippable cycles than SM cycles", c)
		}
	}
}

func TestProfilerFold(t *testing.T) {
	p := New(false)
	if p.WallClock() {
		t.Fatal("census-only profiler reports wall-clock")
	}
	p.Fold(Census{SMCycles: 10}, [NumPhases]int64{PhaseIssue: 100})
	p.Fold(Census{SMCycles: 6, Skippable: 4}, [NumPhases]int64{PhaseIssue: 50, PhaseBanks: 7})
	got := p.Census()
	want := Census{SMCycles: 16, Skippable: 4}
	if got != want {
		t.Errorf("folded census = %+v, want %+v", got, want)
	}
	ns := p.PhaseNS()
	if ns[PhaseIssue] != 150 || ns[PhaseBanks] != 7 {
		t.Errorf("folded phase ns = %v", ns)
	}
}

func testEntries() []Entry {
	pB := New(false)
	pB.Fold(Census{SMCycles: 200, Skippable: 40}, [NumPhases]int64{})
	pA := New(true)
	pA.Fold(Census{SMCycles: 100, Skippable: 10}, [NumPhases]int64{PhaseIssue: 5})
	return []Entry{
		NewEntry("wlB", "partitioned", pB),
		NewEntry("wlA", "mono-stv", pA),
	}
}

// TestReportRoundTrip: WriteJSON → Read preserves the report exactly,
// NewReport sorts canonically, and serialization is byte-deterministic.
func TestReportRoundTrip(t *testing.T) {
	r := NewReport(testEntries())
	if r.Schema != Schema {
		t.Errorf("schema = %q", r.Schema)
	}
	if r.Entries[0].Workload != "wlA" || r.Entries[1].Workload != "wlB" {
		t.Errorf("entries not in canonical order: %s, %s", r.Entries[0].Workload, r.Entries[1].Workload)
	}
	if r.Total.Workload != "total" || r.Total.Design != "all" {
		t.Errorf("total row mislabeled: %s/%s", r.Total.Workload, r.Total.Design)
	}
	if r.Total.Census.SMCycles != 300 || r.Total.Census.Skippable != 50 {
		t.Errorf("total census wrong: %+v", r.Total.Census)
	}
	// The wall-clock section appears only on entries whose profiler
	// collected wall time.
	if r.Entries[0].Wall == nil {
		t.Error("wall-clock entry lost its Wall section")
	}
	if r.Entries[1].Wall != nil {
		t.Error("census-only entry grew a Wall section")
	}

	var buf1, buf2 bytes.Buffer
	if err := r.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("WriteJSON is not byte-deterministic")
	}

	back, err := Read(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	var buf3 bytes.Buffer
	if err := back.WriteJSON(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf3.Bytes()) {
		t.Errorf("round trip changed bytes:\n%s\nvs\n%s", buf1.String(), buf3.String())
	}
}

// overflowReport's entries are each valid, but their sm_cycles sum
// past 2^64; summed with wraparound, its total would read 0 cycles with
// 1 skippable, which Read must not accept either.
const overflowReport = `{"schema":"pilotrf-perfscope/v2","entries":[` +
	`{"workload":"a","design":"d","census":{"sm_cycles":18446744073709551615,"skippable":1}},` +
	`{"workload":"b","design":"d","census":{"sm_cycles":1,"skippable":0}}],` +
	`"total":{"workload":"total","design":"all","census":{"sm_cycles":0,"skippable":1}}}`

func TestReadRejects(t *testing.T) {
	var good bytes.Buffer
	if err := NewReport(testEntries()).WriteJSON(&good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, doc string
	}{
		{"empty", ""},
		{"not json", "{"},
		{"wrong schema", strings.Replace(good.String(), Schema, "pilotrf-perfscope/v999", 1)},
		{"missing workload", strings.Replace(good.String(), `"wlA"`, `""`, 1)},
		{"skippable exceeds cycles", strings.Replace(good.String(), `"skippable": 10`, `"skippable": 101`, 1)},
		{"total differs from entries", strings.Replace(good.String(), `"sm_cycles": 300`, `"sm_cycles": 301`, 1)},
		{"entries overflow", overflowReport},
	}
	for _, tc := range cases {
		if _, err := Read(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: Read accepted invalid report", tc.name)
		}
	}
}

func TestNowMonotonic(t *testing.T) {
	a := Now()
	b := Now()
	if b < a {
		t.Errorf("Now went backwards: %d then %d", a, b)
	}
}
