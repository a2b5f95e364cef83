package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pilotrf/internal/benchstat"
	"pilotrf/internal/trace"
)

// setupReps is how many times each workload sets up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 9

// minLatencySamples is the fewest timed operations a run makes: the p90
// latency then has at least minTail samples beyond it.
const minLatencySamples = 100

// setupMedian times setup setupReps times and returns the median in
// nominal seconds. Every repetition but the last is torn down, untimed,
// by the function setup returns; the last one's state is what the run
// measures.
func setupMedian(cal *calibrator, setup func() (teardown func(), err error)) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		cal.measure()
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, err
		}
		secs = append(secs, cal.seconds(t0, time.Since(t0)))
		if i < setupReps-1 && teardown != nil {
			teardown()
		}
	}
	return benchstat.Summarize(secs).Median, nil
}

// wallLimit bounds a timed phase's wall-clock time, as a multiple of
// its nominal length (run_seconds). A run does a fixed amount of work,
// so that every per-operation figure weighs the same operations alike;
// only on a host so slow that the work would overrun the limit does the
// phase stop early, at a unit boundary, and the run say it was
// truncated.
const wallLimit = 1.5

// pacer decides whether a timed phase starts another unit of work: a
// pass over the suite, a campaign round or a served job. It is safe for
// concurrent use.
type pacer struct {
	start          time.Time
	limit          time.Duration
	planned, least int
	truncated      atomic.Bool
}

// newPacer plans the budget over one unit's nominal duration, and at
// least least units, to end within limit of wall-clock time from now.
func newPacer(budget, nominal, limit time.Duration, least int) *pacer {
	least = max(1, least)
	return &pacer{start: time.Now(), limit: limit, planned: max(least, int(budget/nominal)), least: least}
}

// more reports whether the phase starts another unit with done units
// started: always below the least, never past the plan, and otherwise
// only while another unit at the mean pace so far would end within the
// limit. Once it has said no for the limit, it says no for good.
func (p *pacer) more(done int) bool {
	switch {
	case done >= p.planned || p.truncated.Load():
		return false
	case done < p.least:
		return true
	}
	elapsed := time.Since(p.start)
	if elapsed+elapsed/time.Duration(done) > p.limit {
		p.truncated.Store(true)
		return false
	}
	return true
}

// memSnap is a snapshot of the Go runtime's allocation and GC counters.
// gcCPU and totalCPU are cumulative GC and available CPU time, in any
// one unit, as of the last completed collection.
type memSnap struct {
	ms              runtime.MemStats
	gcCPU, totalCPU float64
}

// CPU-time classes GCCPUFraction is made of: GC time other than idle
// marking, over the CPU time GOMAXPROCS makes available.
var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/idle:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readMem snapshots this process's allocation and GC counters.
func readMem() memSnap {
	var s memSnap
	runtime.ReadMemStats(&s.ms)
	metrics.Read(cpuSamples)
	s.gcCPU = cpuSamples[0].Value.Float64() - cpuSamples[1].Value.Float64()
	s.totalCPU = cpuSamples[2].Value.Float64()
	return s
}

// remoteMem is a snapshot of another process's counters, from its
// MemStats and the time it was started. The runtime updates
// GCCPUFraction at the end of each collection, over the CPU time
// available since the process started, so the GC CPU time up to that
// collection is the fraction times the time since the start.
func remoteMem(ms runtime.MemStats, started time.Time) memSnap {
	s := memSnap{ms: ms}
	if ms.LastGC != 0 {
		s.totalCPU = float64(int64(ms.LastGC)-started.UnixNano()) / 1e9
		s.gcCPU = ms.GCCPUFraction * s.totalCPU
	}
	return s
}

// memMetrics records allocations per operation between two snapshots.
func memMetrics(m map[string]float64, a, b *memSnap, ops float64) {
	m["allocs_per_op"] = ratio(float64(b.ms.Mallocs-a.ms.Mallocs), ops)
	m["bytes_per_op"] = ratio(float64(b.ms.TotalAlloc-a.ms.TotalAlloc), ops)
}

// gcMetrics records the collector's cost between two snapshots taken
// secs (nominal) apart, scaling its pause time by the run's host scale.
func gcMetrics(m map[string]float64, a, b *memSnap, secs, scale float64) {
	m["go.gc_pause_ms"] = scale * float64(b.ms.PauseTotalNs-a.ms.PauseTotalNs) / 1e6
	m["go.gc_cycles_per_s"] = ratio(float64(b.ms.NumGC-a.ms.NumGC), secs)
	m["go.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}

// resetPeakRSS restarts this process's peak resident set (VmHWM) at its
// current resident set, so peakRSS then reads the peak since the reset.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return f.Close()
}

// peakRSS returns this process's peak resident set (VmHWM) in MiB.
func peakRSS() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}

// latencyMetrics records the median and p90 of samples as name_p50 and
// name_p90.
func latencyMetrics(m map[string]float64, name string, samples []float64) error {
	p50, err := percentile(samples, 0.5)
	if err != nil {
		return err
	}
	p90, err := percentile(samples, 0.9)
	if err != nil {
		return err
	}
	m[name+"_p50"], m[name+"_p90"] = p50, p90
	return nil
}

// spanMS is a recorded span's wall-clock duration in milliseconds.
func spanMS(s *trace.Span) float64 {
	if s.Wall == nil {
		return 0
	}
	return float64(s.Wall.EndUnixNS-s.Wall.StartUnixNS) / 1e6
}

// spanLayers folds the spans a campaign records (in process or served
// by pilotserve) into the per-layer metrics of the jobs, campaign and
// simulator layers.
func spanLayers(m map[string]float64, spans []trace.Span, cal *calibrator) error {
	var simMS []float64
	var goldenMS, trialMS, waitMS, taskMS float64
	var cells, cached, trials, sdc float64
	nominalMS := func(s *trace.Span) float64 {
		return spanMS(s) * cal.scale(time.Unix(0, (s.Wall.StartUnixNS+s.Wall.EndUnixNS)/2))
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "golden":
			if s.Attrs["cache"] == "miss" && s.Wall != nil {
				simMS = append(simMS, nominalMS(s))
				goldenMS += spanMS(s)
			}
		case "trial":
			if s.Wall == nil {
				continue
			}
			simMS = append(simMS, nominalMS(s))
			trialMS += spanMS(s)
			trials++
			if s.Attrs["outcome"] == "sdc" {
				sdc++
			}
		case "cell":
			cells++
			if s.Attrs["cache"] == "hit" {
				cached++
			}
		case "pool.task":
			if s.Wall != nil {
				q, _ := strconv.ParseFloat(s.Wall.Attrs["queue_ns"], 64)
				waitMS += q / 1e6
				taskMS += spanMS(s)
			}
		}
	}
	if err := latencyMetrics(m, "sim.call_ms", simMS); err != nil {
		return err
	}
	m["campaign.golden_frac"] = ratio(goldenMS, goldenMS+trialMS)
	m["campaign.cells_cached_frac"] = ratio(cached, cells)
	m["jobs.pool_wait_frac"] = ratio(waitMS, waitMS+taskMS)
	m["fault.sdc_frac"] = ratio(sdc, trials)
	return nil
}
