package main

// The bench-harness runner behind `benchwatch record`: one sample is
// one `go test -run=^$ -bench=. -benchtime=1x .` pass of the root
// bench_test.go suite over every table and figure of the paper.

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"pilotrf/internal/benchstore"
)

// benchGoArgs is the canonical harness invocation, relative to the
// module root.
var benchGoArgs = []string{"test", "-run=^$", "-bench=.", "-benchtime=1x", "."}

// harness runs the root benchmark suite.
type harness struct {
	// command, when non-empty, replaces the default `go test` argv —
	// the -harness-cmd hook tests use to substitute a fast fake suite.
	command []string
}

// commandLine describes the command one sample executes.
func (h harness) commandLine() string {
	if len(h.command) > 0 {
		return strings.Join(h.command, " ")
	}
	return "go " + strings.Join(benchGoArgs, " ")
}

// runSample executes one full harness pass and returns the parsed
// benchmark lines.
func (h harness) runSample() ([]benchstore.Benchmark, error) {
	var cmd *exec.Cmd
	if len(h.command) > 0 {
		cmd = exec.Command(h.command[0], h.command[1:]...)
	} else {
		goBin, err := exec.LookPath("go")
		if err != nil {
			return nil, fmt.Errorf("bench harness needs the go toolchain: %w", err)
		}
		modOut, err := exec.Command(goBin, "env", "GOMOD").Output()
		if err != nil {
			return nil, fmt.Errorf("locating module root: %w", err)
		}
		gomod := strings.TrimSpace(string(modOut))
		if gomod == "" || gomod == os.DevNull {
			return nil, fmt.Errorf("not inside the pilotrf module (go env GOMOD is empty)")
		}
		cmd = exec.Command(goBin, benchGoArgs...)
		cmd.Dir = filepath.Dir(gomod)
	}

	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("benchmark run failed: %w\n%s", err, out.String())
	}
	benches, err := benchstore.Parse(bytes.NewReader(out.Bytes()))
	if err != nil {
		return nil, err
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("no benchmark lines in output:\n%s", out.String())
	}
	return benches, nil
}
