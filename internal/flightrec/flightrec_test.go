package flightrec

import (
	"bytes"
	"strings"
	"testing"
)

func testMeta(label string, seed uint64) Meta {
	return Meta{
		Label: label, Seed: seed, Design: "partitioned-adaptive",
		Profiling: "pilot", Policy: "gto", SMs: 2, ChecksumEvery: 64,
	}
}

func ev(cycle int64, sm int, k Kind, warp, pc int, a, b uint64, d string) Event {
	return Event{Cycle: cycle, SM: sm, Kind: k, Warp: warp, PC: pc, A: a, B: b, Detail: d}
}

func sampleLog(seed uint64) *Log {
	r := NewRecorder(testMeta("sample", seed))
	r.Record(ev(0, -1, KindKernelBegin, -1, -1, 4, 0, "vecadd"))
	r.Record(ev(0, 0, KindCTALaunch, -1, -1, 0, 2, ""))
	r.Record(ev(1, 0, KindIssue, 0, 0, 7, 0xffffffff, "add"))
	r.Record(ev(1, 0, KindRoute, 0, -1, 2, 5, ""))
	r.Record(ev(2, 0, KindIssue, 1, 0, 7, 0xffffffff, "add"))
	r.Record(ev(64, 0, KindChecksum, -1, -1, 0x1234+seed, 0x5678, ""))
	r.Record(ev(70, 0, KindWarpRetire, 0, -1, 0, 0, ""))
	r.Record(ev(72, -1, KindKernelEnd, -1, -1, 2, 0, "vecadd"))
	return r.Log()
}

func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if strings.HasPrefix(name, "kind-") {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindOf(name)
		if !ok || got != k {
			t.Fatalf("KindOf(%q) = %v, %v; want %v", name, got, ok, k)
		}
		if k.Subsystem() == "unknown" {
			t.Errorf("kind %s has no subsystem", k)
		}
	}
	if _, ok := KindOf("bogus"); ok {
		t.Fatal("KindOf accepted an unknown name")
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	l := sampleLog(1)
	var buf bytes.Buffer
	if err := l.WriteNDJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadNDJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.Meta != l.Meta {
		t.Fatalf("meta round-trip: got %+v want %+v", got.Meta, l.Meta)
	}
	if len(got.Events) != len(l.Events) {
		t.Fatalf("events: got %d want %d", len(got.Events), len(l.Events))
	}
	for i := range l.Events {
		if got.Events[i] != l.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got.Events[i], l.Events[i])
		}
	}
}

func TestReadNDJSONErrors(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"empty", "", "empty recording"},
		{"bad header json", "{not json\n", "bad header"},
		{"wrong schema", `{"schema":"other/v9"}` + "\n", "schema"},
		{"v2 schema", `{"schema":"pilotrf-flightrec/v2","seed":1}` + "\n",
			`schema "pilotrf-flightrec/v2", want "pilotrf-flightrec/v3"`},
		{"bad event json", `{"schema":"` + Schema + `","seed":1}` + "\n{broken\n", "line 2"},
		{"unknown kind", `{"schema":"` + Schema + `","seed":1}` + "\n" + `{"c":1,"k":"bogus"}` + "\n", "unknown event kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadNDJSON(strings.NewReader(tc.input))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestRecorderDefaults(t *testing.T) {
	r := NewRecorder(Meta{Label: "x"})
	if r.ChecksumEvery() != DefaultChecksumEvery {
		t.Fatalf("ChecksumEvery = %d, want default %d", r.ChecksumEvery(), DefaultChecksumEvery)
	}
	if got := r.Log().Meta.Schema; got != Schema {
		t.Fatalf("schema = %q, want %q", got, Schema)
	}
}

func TestCheckerMatch(t *testing.T) {
	l := sampleLog(1)
	c := NewChecker(l)
	for _, e := range l.Events {
		c.Record(e)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("full replay should match: %v", err)
	}
	if c.Checked() != len(l.Events) {
		t.Fatalf("Checked = %d, want %d", c.Checked(), len(l.Events))
	}
	if c.ChecksumEvery() != 64 {
		t.Fatalf("ChecksumEvery = %d, want 64", c.ChecksumEvery())
	}
}

func TestCheckerMismatch(t *testing.T) {
	l := sampleLog(1)
	c := NewChecker(l)
	for i, e := range l.Events {
		if i == 3 {
			e.A++ // corrupt the routing partition
		}
		c.Record(e)
	}
	d := c.Divergence()
	if d == nil || d.Index != 3 {
		t.Fatalf("divergence = %+v, want index 3", d)
	}
	if d.Cycle() != l.Events[3].Cycle {
		t.Fatalf("divergence cycle = %d, want %d", d.Cycle(), l.Events[3].Cycle)
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "diverged at event 3") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckerShortReplay(t *testing.T) {
	l := sampleLog(1)
	c := NewChecker(l)
	for _, e := range l.Events[:4] {
		c.Record(e)
	}
	if c.Divergence() != nil {
		t.Fatal("prefix replay should not register a divergence")
	}
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "ended after 4 of") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckerExtraEvents(t *testing.T) {
	l := sampleLog(1)
	c := NewChecker(l)
	for _, e := range l.Events {
		c.Record(e)
	}
	c.Record(ev(99, 0, KindIssue, 0, 4, 7, 1, "add"))
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "extra events") {
		t.Fatalf("err = %v", err)
	}
}

func TestDiffIdentical(t *testing.T) {
	r := Diff(sampleLog(1), sampleLog(1), 3)
	if r.Diverged {
		t.Fatalf("identical logs diverged: %+v", r)
	}
	if len(r.MetaDiffs) != 0 {
		t.Fatalf("meta diffs on identical logs: %v", r.MetaDiffs)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "IDENTICAL") {
		t.Fatalf("text output:\n%s", buf.String())
	}
}

func TestDiffDivergence(t *testing.T) {
	a, b := sampleLog(1), sampleLog(2)
	b.Meta.Seed = 2
	r := Diff(a, b, 2)
	if !r.Diverged {
		t.Fatal("different-seed logs should diverge")
	}
	// sampleLog's first seed-dependent event is the checksum at index 5.
	if r.Index != 5 {
		t.Fatalf("Index = %d, want 5", r.Index)
	}
	if r.Cycle != 64 {
		t.Fatalf("Cycle = %d, want 64", r.Cycle)
	}
	if r.Subsystem != "architectural-state" {
		t.Fatalf("Subsystem = %q", r.Subsystem)
	}
	if r.ChecksumOrdinal != 0 || r.ChecksumSM != 0 || r.ChecksumCycleA != 64 {
		t.Fatalf("checksum mismatch fields: %+v", r)
	}
	if len(r.ContextA) != 5 { // 2 before + event + 2 after
		t.Fatalf("ContextA = %d events, want 5", len(r.ContextA))
	}
	found := false
	for _, d := range r.MetaDiffs {
		if strings.Contains(d, "seed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("meta diffs missing seed: %v", r.MetaDiffs)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FIRST DIVERGENCE", "cycle 64", "architectural-state", "checksum #0"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestDiffPrefix(t *testing.T) {
	a := sampleLog(1)
	b := &Log{Meta: a.Meta, Events: a.Events[:5]}
	r := Diff(a, b, 1)
	if !r.Diverged || r.Index != 5 {
		t.Fatalf("prefix diff: %+v", r)
	}
	if r.EventB != nil || r.EventA == nil {
		t.Fatalf("prefix diff events: A=%v B=%v", r.EventA, r.EventB)
	}
	if r.Cycle != a.Events[5].Cycle {
		t.Fatalf("Cycle = %d, want %d", r.Cycle, a.Events[5].Cycle)
	}
}

func TestLogHelpers(t *testing.T) {
	l := sampleLog(1)
	if n := l.CountKind(KindIssue); n != 2 {
		t.Fatalf("CountKind(issue) = %d, want 2", n)
	}
	if sums := l.Checksums(); len(sums) != 1 || sums[0].Cycle != 64 {
		t.Fatalf("Checksums = %+v", sums)
	}
}
