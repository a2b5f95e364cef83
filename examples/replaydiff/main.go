// Replaydiff: flight-recorder walkthrough. The example records the
// same benchmark twice — once with pilot-warp profiling, once with the
// oracle placement (the measured top registers fed back in) — then
// diffs the two recordings to localize the first cycle where the pilot
// design departs from the oracle, and finally replays the pilot
// recording to verify the simulator's determinism.
//
// The diff's "subsystem" line is the payoff: when pilot and oracle
// disagree, the first diverging event says whether the disagreement
// started in FRF/SRF routing (different placement), the warp scheduler
// (different timing), or the swap table itself.
package main

import (
	"fmt"
	"log"
	"os"

	"pilotrf"
)

const bench = "sgemm"

// newSim returns a 1-SM simulator at reduced scale; every run in this
// example must use identical options so the recordings stay comparable.
func newSim() *pilotrf.Simulator {
	sim, err := pilotrf.NewSimulator(pilotrf.Options{
		SMs:       1,
		Scheme:    "part-adaptive",
		Profiling: pilotrf.ProfilePilot,
		Scale:     0.25,
	})
	if err != nil {
		log.Fatal(err)
	}
	return sim
}

// capture runs the benchmark with the given profiling setup and returns
// the recording.
func capture(label string, oracle []pilotrf.Reg) *pilotrf.Recording {
	sim := newSim()
	if oracle != nil {
		sim.Config().Profiling = pilotrf.ProfileOracle
		sim.Config().Oracle = oracle
	}
	rec := sim.EnableFlightRecorder(64)
	if _, err := sim.RunBenchmark(bench); err != nil {
		log.Fatal(err)
	}
	l := rec.Log()
	l.Meta.Label = label
	fmt.Printf("%-8s recorded %d events, %d checksums\n",
		label, len(l.Events), len(l.Checksums()))
	return l
}

func main() {
	// Pass 1: measure the true top registers with a plain pilot run.
	measure := newSim()
	res, err := measure.RunBenchmark(bench)
	if err != nil {
		log.Fatal(err)
	}
	var oracle []pilotrf.Reg
	for _, kv := range res.Stats.Kernels[0].RegHist.TopN(4) {
		oracle = append(oracle, pilotrf.R(kv.Key))
	}
	fmt.Printf("measured top-4 registers of %s: %v\n\n", bench, oracle)

	// Pass 2: record pilot vs oracle placement and diff.
	pilot := capture("pilot", nil)
	orc := capture("oracle", oracle)

	fmt.Println()
	report := pilotrf.DiffRecordings(pilot, orc, 3)
	if err := report.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Pass 3: replay verification — the pilot recording must reproduce
	// exactly on a fresh simulator.
	replay := newSim()
	chk := replay.EnableReplayCheck(pilot)
	if _, err := replay.RunBenchmark(bench); err != nil {
		log.Fatal(err)
	}
	if err := chk.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplay verification: %d events reproduced exactly\n", chk.Checked())
}
