// Schedulers: compare the three warp schedulers (loose round-robin,
// greedy-then-oldest, and the two-level scheduler of the RFC design) on
// the proposed partitioned register file, reproducing the paper's claim
// that the technique performs consistently across schedulers.
package main

import (
	"fmt"
	"log"

	"pilotrf"
)

func main() {
	schedulers := []struct {
		name string
		pol  pilotrf.Scheduler
	}{
		{"LRR", pilotrf.SchedulerLRR},
		{"GTO", pilotrf.SchedulerGTO},
		{"TL", pilotrf.SchedulerTL},
		{"FetchGroup", pilotrf.SchedulerFetchGroup},
	}
	benches := []string{"BFS", "hotspot", "sgemm", "LIB"}

	run := func(scheme string, prof pilotrf.Technique, pol pilotrf.Scheduler, bench string) pilotrf.Result {
		s, err := pilotrf.NewSimulator(pilotrf.Options{
			SMs: 1, Scheme: scheme, Profiling: prof, Scheduler: pol, Scale: 0.5,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.RunBenchmark(bench)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	for _, sc := range schedulers {
		fmt.Printf("=== %s scheduler ===\n", sc.name)
		fmt.Printf("  %-10s %10s %10s %12s %10s\n", "bench", "base cyc", "part cyc", "overhead", "saving")
		for _, b := range benches {
			base := run("mrf-stv", pilotrf.ProfileStaticFirstN, sc.pol, b)
			part := run("part-adaptive", pilotrf.ProfileHybrid, sc.pol, b)
			fmt.Printf("  %-10s %10d %10d %11.1f%% %9.1f%%\n",
				b, base.Cycles(), part.Cycles(),
				(float64(part.Cycles())/float64(base.Cycles())-1)*100,
				part.DynamicSavings()*100)
		}
		fmt.Println()
	}
}
