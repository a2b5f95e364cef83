// Resilience: a miniature soft-error campaign through the public API.
// The paper's 224 KB SRF runs at 0.3 V near-threshold, exactly where
// SRAM critical charge collapses and the soft-error rate spikes — so
// the energy win is only real if the NTV partition can be protected
// affordably. This example injects accelerated-rate faults into one
// benchmark under each protection scheme, classifies every trial
// (masked / corrected / aborted / silent corruption) against a
// fault-free golden run, and prices the protection overhead.
package main

import (
	"errors"
	"fmt"
	"log"

	"pilotrf"
)

const (
	bench  = "sgemm"
	rate   = 2e-11 // upsets/bit/cycle: accelerated ~1e8x over real SER
	trials = 8
)

func newSim() *pilotrf.Simulator {
	sim, err := pilotrf.NewSimulator(pilotrf.Options{
		SMs:       1,
		Scheme:    "part-adaptive",
		Profiling: pilotrf.ProfileHybrid,
		Scale:     0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	return sim
}

func main() {
	// Golden run: same seed discipline, no injection. Its dataflow
	// digest is the reference every faulty trial is compared against.
	golden := newSim()
	gp := golden.EnableSDCProbe()
	if _, err := golden.RunBenchmark(bench); err != nil {
		log.Fatal(err)
	}

	schemes := []struct {
		name   string
		scheme pilotrf.ProtectionScheme
	}{
		{"none", pilotrf.Unprotected()},
		{"parity", pilotrf.FullParity()},
		{"secded", pilotrf.FullSECDED()},
		{"paper", pilotrf.PaperProtection()},
	}

	fmt.Printf("%s, %d trials/scheme, rate %.0e upsets/bit/cycle\n\n", bench, trials, rate)
	fmt.Printf("%-8s  %6s %9s %7s %5s  %10s\n",
		"scheme", "masked", "corrected", "aborted", "sdc", "ecc-ovh-pJ")

	for _, s := range schemes {
		var masked, corrected, aborted, sdc int
		var overheadPJ float64
		for trial := 0; trial < trials; trial++ {
			sim := newSim()
			if err := sim.EnableProtection(s.scheme); err != nil {
				log.Fatal(err)
			}
			led := sim.EnableEnergyLedger(0)
			probe := sim.EnableSDCProbe()
			err := sim.EnableFaultInjection(pilotrf.FaultConfig{
				Rate: rate,
				Seed: 1 + uint64(trial)*0x9E3779B97F4A7C15,
			})
			if err != nil {
				log.Fatal(err)
			}

			res, err := sim.RunBenchmark(bench)
			overheadPJ += led.OverheadPJ()
			var ue *pilotrf.UnrecoverableFault
			if errors.As(err, &ue) {
				aborted++
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			ft := res.Stats.FaultTotals()
			switch _, diverged := probe.Diverged(gp); {
			case diverged:
				sdc++
			case ft.Corrected+ft.RetrySuccess+ft.CAMRepaired > 0:
				corrected++
			default:
				masked++
			}
		}
		fmt.Printf("%-8s  %6d %9d %7d %5d  %10.1f\n",
			s.name, masked, corrected, aborted, sdc, overheadPJ/float64(trials))
	}

	fmt.Println("\nUnprotected runs turn strikes into silent data corruption; parity")
	fmt.Println("detects them (aborting on uncorrectable cells); SECDED corrects them")
	fmt.Println("in place for a per-access check-bit premium. The paper scheme puts")
	fmt.Println("SECDED only where NTV operation needs it. For the full grid, run")
	fmt.Println("cmd/faultcampaign.")
}
