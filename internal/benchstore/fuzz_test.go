package benchstore

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadHistory asserts the pilotrf-benchhistory/v1 reader never
// panics on arbitrary input, and that anything it accepts survives a
// write→read→write round trip byte-identically (the canonicalization
// property benchwatch gate/report reproducibility relies on).
func FuzzReadHistory(f *testing.F) {
	f.Add(`{"schema":"pilotrf-benchhistory/v1"}` + "\n")
	f.Add(`{"schema":"pilotrf-benchhistory/v1"}` + "\n" +
		`{"label":"PR2","commit":"abc","time_unix":100,"host":{"goos":"linux","goarch":"amd64","num_cpu":4,"go_version":"go1.24.0"},` +
		`"benchmarks":[{"name":"BenchmarkA","ns_per_op":[100,110],"metrics":{"cycles":500}}]}` + "\n")
	f.Add(`{"schema":"pilotrf-benchhistory/v1"}` + "\n" +
		`{"label":"a","time_unix":1,"host":{"goos":"l","goarch":"a","num_cpu":1,"go_version":"g"},"benchmarks":[{"name":"B","ns_per_op":[1]}]}` + "\n" +
		`{"label":"b","time_unix":2,"host":{"goos":"l","goarch":"a","num_cpu":1,"go_version":"g"},"benchmarks":[{"name":"B","ns_per_op":[2]}]}` + "\n")
	f.Add(`{"schema":"pilotrf-benchhistory/v0"}` + "\n")
	f.Add(`{"label":"no-header"}` + "\n")
	f.Add("{nope\n")
	f.Add(`{"schema":"pilotrf-benchhistory/v1"}` + "\n" + `{"label":"x","benchmarks":[{"name":"A","ns_per_op":[-1]}]}` + "\n")
	f.Fuzz(func(t *testing.T, in string) {
		h, err := ReadHistory(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteHistory(&buf, h); err != nil {
			t.Fatalf("accepted history failed to write: %v", err)
		}
		back, err := ReadHistory(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("rewrite unreadable: %v", err)
		}
		var buf2 bytes.Buffer
		if err := WriteHistory(&buf2, back); err != nil {
			t.Fatalf("second write: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("round trip not stable")
		}
	})
}

// FuzzParse hammers the `go test -bench` text parser: no panic, and
// every line it accepts must carry a positive iteration count and
// re-parse identically (the parser is deterministic on its own output
// interpretation).
func FuzzParse(f *testing.F) {
	f.Add("BenchmarkFigure11_DynamicEnergy-8   1   123456 ns/op   53.7 saving-pct(paper:54)\n")
	f.Add("goos: linux\ngoarch: amd64\nBenchmarkX 10 5 ns/op\nPASS\nok  pilotrf 1.2s\n")
	f.Add("BenchmarkNoIters\n")
	f.Add("Benchmark-0 5\n")
	f.Add("BenchmarkHuge 9223372036854775807 1e308 ns/op\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, data string) {
		benches, err := Parse(strings.NewReader(data))
		if err != nil {
			return
		}
		for _, b := range benches {
			if b.Name == "" || !strings.HasPrefix(b.Name, "Benchmark") {
				t.Fatalf("accepted benchmark with name %q", b.Name)
			}
			if b.Procs <= 0 {
				t.Fatalf("accepted benchmark with procs %d", b.Procs)
			}
		}
		// Parsing the same input twice must agree exactly.
		again, err := Parse(strings.NewReader(data))
		if err != nil || !reflect.DeepEqual(benches, again) {
			t.Fatalf("reparse drift (err %v)", err)
		}
	})
}
