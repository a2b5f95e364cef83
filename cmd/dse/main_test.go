package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pilotrf/internal/dse"
)

// runDSE drives the binary's run() in process and returns exit code,
// stdout, and stderr.
func runDSE(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// smokeArgs is the CI smoke sweep: two schemes, two workloads, tiny
// scale.
func smokeArgs(extra ...string) []string {
	args := []string{
		"-schemes", "mrf-stv,greener", "-bench", "sgemm,backprop",
		"-scale", "0.02", "-sms", "1",
	}
	return append(args, extra...)
}

// TestRunParallelByteIdentical is the acceptance criterion: the report
// and CSV bytes must be identical at -parallel 1 and -parallel 8.
func TestRunParallelByteIdentical(t *testing.T) {
	dir := t.TempDir()
	render := func(parallel string) (string, string) {
		jsonPath := filepath.Join(dir, "report-"+parallel+".json")
		csvPath := filepath.Join(dir, "points-"+parallel+".csv")
		code, _, errb := runDSE(t, smokeArgs(
			"-parallel", parallel, "-out", jsonPath, "-csv", csvPath)...)
		if code != 0 {
			t.Fatalf("-parallel %s exited %d: %s", parallel, code, errb)
		}
		j, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		c, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		return string(j), string(c)
	}
	j1, c1 := render("1")
	j8, c8 := render("8")
	if j1 != j8 {
		t.Errorf("reports differ between -parallel 1 and -parallel 8:\n%s\nvs\n%s", j1, j8)
	}
	if c1 != c8 {
		t.Errorf("CSVs differ between -parallel 1 and -parallel 8:\n%s\nvs\n%s", c1, c8)
	}
}

// TestRunProfileFlags: -cpuprofile and -memprofile write gzipped pprof
// profiles, and the report, CSV and stdout are the same bytes with or
// without them.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	jsonPath, csvPath := filepath.Join(dir, "report.json"), filepath.Join(dir, "points.csv")
	render := func(extra ...string) string {
		code, out, errb := runDSE(t, smokeArgs(append([]string{"-out", jsonPath, "-csv", csvPath}, extra...)...)...)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errb)
		}
		j, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		c, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		return out + string(j) + string(c)
	}
	plain := render()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if profiled := render("-cpuprofile", cpu, "-memprofile", mem); profiled != plain {
		t.Errorf("profiling changed stdout, report or CSV:\n--- plain\n%s--- profiled\n%s", plain, profiled)
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

// TestRunReportValidates: the written report must pass the validating
// reader and carry the swept schemes in order.
func TestRunReportValidates(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	code, out, errb := runDSE(t, smokeArgs("-out", jsonPath)...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "Pareto frontier") {
		t.Errorf("stdout missing the frontier summary:\n%s", out)
	}
	f, err := os.Open(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := dse.Read(f)
	if err != nil {
		t.Fatalf("written report fails the validating reader: %v", err)
	}
	if len(rep.Workloads) != 2 {
		t.Errorf("report workloads = %v, want the 2 selected", rep.Workloads)
	}
	schemes := map[string]bool{}
	for _, p := range rep.Points {
		schemes[p.Scheme] = true
	}
	if !schemes["mrf-stv"] || !schemes["greener"] || len(schemes) != 2 {
		t.Errorf("report schemes = %v, want exactly {mrf-stv, greener}", schemes)
	}
}

// TestRunUnknownSchemeUsageError: a bad -schemes entry is a usage
// error (exit 2) whose message lists the valid names.
func TestRunUnknownSchemeUsageError(t *testing.T) {
	code, _, errb := runDSE(t, "-schemes", "mrf-stv,warpdrive")
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, errb)
	}
	for _, want := range []string{"warpdrive", "mrf-stv", "part-adaptive", "rfc-hints"} {
		if !strings.Contains(errb, want) {
			t.Errorf("usage error %q does not mention %q", errb, want)
		}
	}
}

func TestRunBadParallelUsageError(t *testing.T) {
	if code, _, _ := runDSE(t, "-parallel", "0"); code != 2 {
		t.Fatalf("-parallel 0 exited %d, want 2", code)
	}
}

func TestRunUnknownWorkloadFails(t *testing.T) {
	code, _, errb := runDSE(t, "-bench", "nonesuch", "-schemes", "mrf-stv", "-scale", "0.02")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb)
	}
}
