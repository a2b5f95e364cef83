// Quickstart: run one benchmark on the paper's proposed register file
// design and on the two baselines, and print the headline numbers —
// energy savings and performance overhead.
package main

import (
	"fmt"
	"log"

	"pilotrf"
)

func main() {
	const bench = "backprop"

	run := func(opts pilotrf.Options) pilotrf.Result {
		s, err := pilotrf.NewSimulator(opts)
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.RunBenchmark(bench)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// The baselines run on the paper's GPU (SMs, scale, GTO scheduling),
	// so the rows differ only in the register file and its management.
	baseline := func(scheme string) pilotrf.Options {
		opts := pilotrf.PaperOptions()
		opts.Scheme, opts.Profiling = scheme, pilotrf.ProfileStaticFirstN
		return opts
	}

	// The performance baseline: a monolithic 256 KB MRF at
	// super-threshold voltage.
	base := run(baseline("mrf-stv"))

	// The power-aggressive baseline: the same MRF at near-threshold
	// voltage (3-cycle access).
	ntv := run(baseline("mrf-ntv"))

	// The paper's proposal: FRF+SRF partition, adaptive FRF power mode,
	// hybrid (compiler + pilot warp) profiling.
	proposed := run(pilotrf.PaperOptions())

	fmt.Printf("benchmark: %s\n\n", bench)
	fmt.Printf("%-22s %12s %10s %12s\n", "design", "cycles", "slowdown", "dyn. saving")
	row := func(name string, r pilotrf.Result) {
		fmt.Printf("%-22s %12d %9.1f%% %11.1f%%\n",
			name, r.Cycles(),
			(float64(r.Cycles())/float64(base.Cycles())-1)*100,
			r.DynamicSavings()*100)
	}
	row("MRF @ STV (baseline)", base)
	row("MRF @ NTV", ntv)
	row("Partitioned+Adaptive", proposed)

	fmt.Printf("\nproposed design detail:\n")
	fmt.Printf("  accesses served by the FRF: %.0f%%\n", proposed.FRFShare()*100)
	fmt.Printf("  top-4 registers carry %.0f%% of accesses\n", proposed.TopNShare(4)*100)
	fmt.Printf("  RF leakage: %.1f mW vs %.1f mW baseline (%.0f%% saving)\n",
		proposed.Energy.LeakageMW, base.Energy.LeakageMW,
		(1-proposed.Energy.LeakageMW/base.Energy.LeakageMW)*100)
}
