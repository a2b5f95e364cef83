package perfscope

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadReport hardens the report reader against corrupt input: Read
// must never panic, and any report it accepts must satisfy the census
// invariants and survive a write/read round trip byte-identically.
// testdata/fuzz/FuzzReadReport holds entries whose census sums overflow
// uint64, which once read fine and then failed their own rewrite.
func FuzzReadReport(f *testing.F) {
	var good bytes.Buffer
	if err := NewReport(testEntries()).WriteJSON(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.String())
	var empty bytes.Buffer
	if err := NewReport(nil).WriteJSON(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.String())
	f.Add("")
	f.Add("{}")
	f.Add(`{"schema":"pilotrf-perfscope/v2","entries":null,"total":{}}`)
	f.Add(`{"schema":"pilotrf-perfscope/v2","entries":[{"workload":"w","design":"d","census":{"sm_cycles":2,"skippable":1}}],"total":{"workload":"total","design":"all","census":{"sm_cycles":2,"skippable":1}}}`)
	f.Add(strings.Replace(good.String(), `"sm_cycles": 100`, `"sm_cycles": 1e300`, 1))
	f.Add(strings.Replace(good.String(), Schema, "pilotrf-perfscope/v1", 1))

	f.Fuzz(func(t *testing.T, doc string) {
		r, err := Read(strings.NewReader(doc))
		if err != nil {
			return
		}
		// Accepted reports are fully validated...
		if r.Schema != Schema {
			t.Fatalf("accepted report with schema %q", r.Schema)
		}
		for i, e := range r.Entries {
			if e.Workload == "" || e.Design == "" {
				t.Fatalf("accepted entry %d without workload/design", i)
			}
			if err := e.Census.check(); err != nil {
				t.Fatalf("accepted entry %d with invalid census: %v", i, err)
			}
		}
		// ...and our own serialization is a fixed point: canonicalize
		// once, then write → read → write must reproduce the bytes.
		canon := NewReport(r.Entries)
		var b1, b2 bytes.Buffer
		if err := canon.WriteJSON(&b1); err != nil {
			t.Fatalf("rewriting accepted report: %v", err)
		}
		back, err := Read(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("rejecting canonicalized report: %v", err)
		}
		if err := back.WriteJSON(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("canonical form is not a fixed point")
		}
	})
}
