// Energysweep: ablate the paper's choice of four FRF registers per
// thread. Sweeping the fast-partition size shows the tradeoff the paper
// settled at n = 4 (32 KB of 256 KB): fewer registers miss the hot set,
// more registers grow the fast (expensive) partition without capturing
// proportionally more accesses.
package main

import (
	"fmt"
	"log"
	"os"

	"pilotrf"
)

// dumpAttribution re-runs the paper design point (4 FRF registers) on
// one benchmark with the energy ledger and swap audit attached, and
// writes the per-register heatmap plus the placement audit trail.
func dumpAttribution(bench string) {
	sim, err := pilotrf.NewSimulator(pilotrf.Options{
		SMs:       1,
		Scheme:    "part-adaptive",
		Profiling: pilotrf.ProfileHybrid,
		Scale:     0.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	led := sim.EnableEnergyLedger(0)
	audit := sim.EnableSwapAudit()
	res, err := sim.RunBenchmark(bench)
	if err != nil {
		log.Fatal(err)
	}
	if err := led.CheckConservation(res.Stats.PartAccesses(), res.Cycles()); err != nil {
		log.Fatalf("energy ledger conservation: %v", err)
	}

	heatPath := bench + "_heatmap.json"
	auditPath := bench + "_audit.csv"
	write := func(path string, fn func(w *os.File) error) {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := fn(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			log.Fatalf("writing %s: %v", path, err)
		}
	}
	write(heatPath, func(f *os.File) error { return led.WriteHeatmapJSON(f) })
	write(auditPath, func(f *os.File) error { return audit.WriteCSV(f) })
	fmt.Printf("\n%s at the design point: %d heat cells -> %s, %d placement decisions -> %s\n",
		bench, len(led.HeatCells()), heatPath, audit.Len(), auditPath)
}

func main() {
	benches := []string{"sgemm", "kmeans", "srad"}

	fmt.Printf("%-8s", "FRF regs")
	for _, b := range benches {
		fmt.Printf("  %14s", b)
	}
	fmt.Println("\n          (FRF share / dynamic saving per benchmark)")

	for _, frfRegs := range []int{2, 3, 4, 5, 6, 8} {
		sim, err := pilotrf.NewSimulator(pilotrf.Options{
			SMs:       1,
			Scheme:    "part-adaptive",
			Knobs:     pilotrf.DesignKnobs{Size: frfRegs},
			Profiling: pilotrf.ProfileHybrid,
			Scale:     0.5,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d", frfRegs)
		for _, b := range benches {
			res, err := sim.RunBenchmark(b)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %5.0f%% / %5.1f%%", res.FRFShare()*100, res.DynamicSavings()*100)
		}
		fmt.Println()
	}

	fmt.Println("\nThe paper's design point is 4 registers per thread: beyond it the")
	fmt.Println("FRF share saturates while the fast partition keeps growing.")

	dumpAttribution("sgemm")
}
