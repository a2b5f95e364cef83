package main

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPacerRunsThePlan(t *testing.T) {
	p := newPacer(10*time.Second, 3*time.Second, time.Hour, 2)
	n := 0
	for p.more(n) {
		n++
	}
	if n != 3 || p.truncated.Load() {
		t.Errorf("ran %d units (truncated %v), want the planned 3", n, p.truncated.Load())
	}
}

func TestPacerKeepsTheLeast(t *testing.T) {
	p := newPacer(time.Second, 3*time.Second, time.Hour, 4)
	n := 0
	for p.more(n) {
		n++
	}
	if n != 4 {
		t.Errorf("ran %d units, want the least, 4", n)
	}
}

func TestPacerStopsAtTheWallClockLimit(t *testing.T) {
	p := newPacer(time.Hour, time.Second, 0, 2)
	p.start = time.Now().Add(-time.Second) // two units took a second
	if !p.more(0) || !p.more(1) {
		t.Fatal("the least must run whatever the time")
	}
	if p.more(2) || !p.truncated.Load() {
		t.Error("a unit past the limit started, or the stop was not reported")
	}
	p.limit = time.Hour
	if p.more(3) {
		t.Error("a truncated phase started another unit")
	}
}

func TestRemoteGCCPUIsADelta(t *testing.T) {
	started := time.Unix(1000, 0)
	at := func(secs, frac float64) memSnap {
		var ms runtime.MemStats
		ms.LastGC = uint64(started.Add(time.Duration(secs * float64(time.Second))).UnixNano())
		ms.GCCPUFraction = frac
		return remoteMem(ms, started)
	}
	// 10% of the first 10 s, 40% of the next 10 s: 25% overall.
	a, b := at(10, 0.1), at(20, 0.25)
	m := map[string]float64{}
	gcMetrics(m, &a, &b, 10, 1)
	if got := m["go.gc_cpu_frac"]; math.Abs(got-0.4) > 1e-12 {
		t.Errorf("go.gc_cpu_frac = %v, want 0.4, the fraction between the snapshots", got)
	}
}

func TestSecondsMustMatchRunSeconds(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run(context.Background(), []string{"-seconds", strconv.Itoa(spec.RunSeconds + 1), "-workload", wDetached},
		&out, &errOut)
	if code != 2 || !strings.Contains(errOut.String(), "run_seconds") {
		t.Errorf("-seconds %d against run_seconds %d: exit %d (%q), want 2 naming run_seconds",
			spec.RunSeconds+1, spec.RunSeconds, code, errOut.String())
	}
}
