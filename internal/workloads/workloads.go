// Package workloads provides synthetic re-creations of the seventeen
// benchmarks in the paper's Table I (Rodinia, Parboil, and the GPGPU-Sim
// suite). The CUDA sources and their inputs are not available here, so
// each benchmark is rebuilt as a kernel in this repository's ISA that
// preserves the properties the paper's results depend on:
//
//   - registers/thread and threads/CTA exactly as in Table I;
//   - a register access histogram skewed toward a small hot set (top 3-5
//     registers carry 60-80% of accesses, Figure 2), with the hot set
//     deliberately NOT the first architected registers for most
//     workloads (the static-first-N strawman must lose);
//   - the static-text vs dynamic-count relationship that defines the
//     paper's three categories: Category 1 kernels have compiler counts
//     that rank registers like the dynamic counts do; Category 2 kernels
//     hide their hot registers inside high-trip-count loops the static
//     census cannot see; Category 3 kernels (LIB, WP) have so few warps
//     that the pilot warp spans most of the execution;
//   - per-benchmark memory intensity and branch divergence (loads feed
//     loop bounds and branches), giving realistic low-compute phases for
//     the adaptive FRF and realistic scheduler behaviour.
//
// Grid sizes are scaled down from the original applications so a full
// experiment sweep runs in seconds; the number of CTA *waves* per SM — the
// quantity that fixes the pilot warp's runtime share — is preserved in
// shape (small for Category 1/2, one wave for LIB and WP).
package workloads

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"pilotrf/internal/kernel"
)

// Category is the paper's workload classification from Figure 4.
type Category int

// Categories: 1 = compiler profiling tracks pilot profiling; 2 = compiler
// misses the dynamically hot registers; 3 = the pilot warp runs too long
// for pilot profiling to pay off.
const (
	Category1 Category = 1
	Category2 Category = 2
	Category3 Category = 3
)

// PaperInfo records the Table I row for a benchmark (for reproduction
// reports).
type PaperInfo struct {
	RegsPerThread int
	ThreadsPerCTA int
	PilotCTAPct   float64 // the paper's measured pilot runtime share, %
}

// Workload is one benchmark: a short sequence of kernels.
type Workload struct {
	Name     string
	Category Category
	Kernels  []kernel.Kernel
	Paper    PaperInfo
}

// Scale returns a copy with CTA counts multiplied by f (minimum 1 CTA),
// for fast unit tests and quick runs. Register counts, CTA geometry, and
// code are unchanged.
func (w Workload) Scale(f float64) Workload {
	out := w
	out.Kernels = make([]kernel.Kernel, len(w.Kernels))
	copy(out.Kernels, w.Kernels)
	for i := range out.Kernels {
		n := int(float64(out.Kernels[i].NumCTAs) * f)
		if n < 1 {
			n = 1
		}
		out.Kernels[i].NumCTAs = n
	}
	return out
}

// assumedSMs is the simulation default the grid sizes are tuned for
// (sim.DefaultConfig's SM count).
const assumedSMs = 2

// residentCTAs computes how many CTAs of this shape fit on one SM under
// the paper's Kepler limits (64 warp slots, 2048 warp-register slots, 16
// CTAs) — used to convert "waves" into grid sizes.
func residentCTAs(regs, threadsPerCTA int) int {
	warps := (threadsPerCTA + 31) / 32
	n := 16
	if bySlots := 64 / warps; bySlots < n {
		n = bySlots
	}
	if byRegs := 2048 / (warps * regs); byRegs < n {
		n = byRegs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// grid returns the CTA count giving approximately `waves` waves per SM.
func grid(regs, threadsPerCTA int, waves float64) int {
	n := int(waves * float64(residentCTAs(regs, threadsPerCTA)*assumedSMs))
	if n < 1 {
		n = 1
	}
	return n
}

// assemble builds every benchmark's kernels afresh, in Table I order.
func assemble() []Workload {
	return []Workload{
		BFS(), Btree(), Hotspot(), NW(), Stencil(), Backprop(), SAD(), SRAD(), MUM(),
		Kmeans(), LavaMD(), MRIQ(), NN(), SGEMM(), CP(),
		LIB(), WP(),
	}
}

// suite is the Table I suite, assembled once per process: building and
// validating every kernel is the expensive part of All, and a
// kernel.Program is read-only once built.
var suite = sync.OnceValue(assemble)

// All returns every benchmark, in Table I order. The suite is built
// once per process and its programs are shared by every caller, so they
// are read-only; each call gets its own slice and its own Kernels
// slices, so a caller may rewrite a kernel's launch geometry.
func All() []Workload {
	all := suite()
	out := make([]Workload, len(all))
	for i, w := range all {
		w.Kernels = slices.Clone(w.Kernels)
		out[i] = w
	}
	return out
}

// Names returns all benchmark names in Table I order.
func Names() []string {
	all := suite()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// ByName returns the named benchmark. Like All, it shares the suite's
// read-only programs, built once per process, and returns its own
// Kernels slice.
func ByName(name string) (Workload, error) {
	for _, w := range suite() {
		if w.Name == name {
			w.Kernels = slices.Clone(w.Kernels)
			return w, nil
		}
	}
	known := Names()
	sort.Strings(known)
	return Workload{}, fmt.Errorf("workloads: unknown benchmark %q (known: %v)", name, known)
}

// ByCategory returns the benchmarks in a category, in Table I order.
func ByCategory(c Category) []Workload {
	var out []Workload
	for _, w := range All() {
		if w.Category == c {
			out = append(out, w)
		}
	}
	return out
}
