package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"testing"
)

// TestSweepProfileFlags: -cpuprofile and -memprofile write gzipped
// pprof profiles, and the JSON report and stdout are the same bytes
// with or without them.
func TestSweepProfileFlags(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	render := func(extra ...string) string {
		var out bytes.Buffer
		args := []string{"-only", "fig1,table1", "-scale", "0.02", "-sms", "1", "-json", jsonPath}
		if code := run(append(args, extra...), &out); code != 0 {
			t.Fatalf("exit %d; stdout:\n%s", code, out.String())
		}
		j, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		return out.String() + string(j)
	}
	plain := render()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if profiled := render("-cpuprofile", cpu, "-memprofile", mem); profiled != plain {
		t.Errorf("profiling changed stdout or the report:\n--- plain\n%s--- profiled\n%s", plain, profiled)
	}
	for _, p := range []string{cpu, mem} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gzip.NewReader(bytes.NewReader(b)); err != nil {
			t.Errorf("%s is not a gzipped profile: %v", filepath.Base(p), err)
		}
	}
}
