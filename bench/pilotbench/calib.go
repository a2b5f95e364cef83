package main

import (
	"sort"
	"time"
)

// Host-speed calibration. The benchmark shares its host with other
// tenants whose load changes how fast the same code runs, by 10-50%
// for seconds to minutes at a time. Every time the benchmark reports is
// therefore scaled to a fixed host speed: before each operation it times
// a reference loop, calOps increments of a calKeys-entry Go map that it
// reuses (hashing and cache-resident memory traffic, no allocation),
// and it multiplies each measured time by calNominal over the median
// reference time of the calWindow calibrations nearest to it. The loop
// slows down with the simulator under contention, where a pure
// arithmetic loop does not. Over six minutes of one simulation repeated
// on a 2-vCPU VM, the 10-second medians of the simulation's time varied
// with a coefficient of variation of 9-12%, and their ratio to the
// reference loop's with 3-4%.
const (
	calKeys = 20_000
	calOps  = 40_000
	// calNominal is the reference time every reported time is scaled to:
	// about its median on the reference host when no other tenant is
	// busy, so reported times read close to that host's wall clock.
	calNominal = 900 * time.Microsecond
	// calWindow is how many calibrations one scale factor takes the
	// median of.
	calWindow = 5
)

// calSink keeps the reference loop from being optimised away.
var calSink uint64

// calibrator times the reference loop and scales measured times by it.
// It is not safe for concurrent use.
type calibrator struct {
	table map[uint64]uint64
	at    []time.Time
	ns    []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make(map[uint64]uint64, calKeys)}
	c.measure()
	return c
}

// measure times one run of the reference loop now.
func (c *calibrator) measure() {
	t0 := time.Now()
	clear(c.table)
	x := uint64(3)
	for i := 0; i < calOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.table[x%calKeys] += x
	}
	calSink += uint64(len(c.table))
	c.at = append(c.at, t0)
	c.ns = append(c.ns, float64(time.Since(t0)))
}

// scale is the factor that converts a time measured at t to the
// nominal host speed.
func (c *calibrator) scale(t time.Time) float64 {
	i := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(t) })
	lo := max(0, min(i-calWindow/2, len(c.ns)-calWindow))
	hi := min(len(c.ns), lo+calWindow)
	near := append([]float64(nil), c.ns[lo:hi]...)
	sort.Float64s(near)
	return float64(calNominal) / near[len(near)/2]
}

// seconds scales a duration that began at start to nominal seconds.
func (c *calibrator) seconds(start time.Time, d time.Duration) float64 {
	return d.Seconds() * c.scale(start.Add(d/2))
}

// runScale is the median scale over calibrations at or after from: the
// factor for whole-run totals such as GC pause time.
func (c *calibrator) runScale(from time.Time) float64 {
	var s []float64
	for i, at := range c.at {
		if !at.Before(from) {
			s = append(s, float64(calNominal)/c.ns[i])
		}
	}
	if len(s) == 0 {
		return c.scale(from)
	}
	sort.Float64s(s)
	return s[len(s)/2]
}
