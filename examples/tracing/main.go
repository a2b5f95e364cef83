// Tracing: attach the pipeline flight recorder to a run and show what the
// SM did cycle by cycle — issues, bank accesses with their partition
// routing, memory transactions, FRF power-mode switches, and the moment
// the pilot warp finishes and the swapping table is reconfigured. The
// same run is exported as a Perfetto trace (open trace.json in
// ui.perfetto.dev or chrome://tracing), its zero-issue cycles are
// attributed to stall causes, and the per-epoch metric time series is
// written as CSV.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"pilotrf"
)

func main() {
	s, err := pilotrf.NewSimulator(pilotrf.Options{
		SMs:       1,
		Scheme:    "part-adaptive",
		Profiling: pilotrf.ProfileHybrid,
		Scale:     0.05,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Tee the same event stream into an in-memory flight recorder and a
	// Perfetto trace_event JSON exporter.
	ring := pilotrf.NewRingTracer(200_000)
	traceFile, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer traceFile.Close()
	perfetto := pilotrf.NewPerfettoTracer(traceFile)
	s.Config().Tracer = pilotrf.NewTeeTracer(ring, perfetto)

	// Attribute every zero-issue cycle to a cause and sample per-epoch
	// metrics (issue utilization, partition mix, power mode, stalls).
	metrics := s.EnableMetrics(0)

	res, err := s.RunBenchmark("kmeans")
	if err != nil {
		log.Fatal(err)
	}
	if err := pilotrf.FlushTracer(s.Config().Tracer); err != nil {
		log.Fatal(err)
	}

	events := ring.Events()
	fmt.Printf("run finished in %d cycles; recorded %d pipeline events\n\n", res.Cycles(), len(events))

	// Show the first instructions flowing through the pipeline.
	fmt.Println("first 15 events:")
	for _, e := range events[:15] {
		fmt.Println(" ", e)
	}

	// Find the pilot completion and the first FRF mode switches.
	fmt.Println("\nkey moments:")
	shown := 0
	for _, e := range events {
		switch e.Kind.String() {
		case "pilot-done", "mode-switch":
			fmt.Println(" ", e)
			shown++
		}
		if shown >= 8 {
			break
		}
	}

	// Tally where the time went, by event kind.
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind.String()]++
	}
	fmt.Println("\nevent totals:")
	for _, k := range []string{"issue", "bank", "dispatch", "writeback", "mem-start", "mode-switch"} {
		fmt.Printf("  %-12s %d\n", k, kinds[k])
	}

	// Where did the stall cycles go? Every zero-issue SM-cycle is charged
	// to exactly one cause; the table provably sums to SM-cycles − busy.
	bd, busy, smCycles := res.Stats.StallTotals()
	fmt.Printf("\nstall attribution (SM-cycles=%d busy=%d stalled=%d):\n%s\n",
		smCycles, busy, smCycles-busy, bd.Table())

	// Dump the per-epoch time series and preview its shape.
	csvFile, err := os.Create("metrics.csv")
	if err != nil {
		log.Fatal(err)
	}
	if err := metrics.WriteCSV(csvFile); err != nil {
		log.Fatal(err)
	}
	if err := csvFile.Close(); err != nil {
		log.Fatal(err)
	}
	var preview strings.Builder
	if err := metrics.WriteCSV(&preview); err != nil {
		log.Fatal(err)
	}
	lines := strings.SplitN(preview.String(), "\n", 4)
	fmt.Printf("metrics.csv: %d epoch samples of %d columns; first rows:\n",
		metrics.Series().Len(), len(metrics.Series().Columns()))
	for _, l := range lines[:3] {
		fmt.Println(" ", l)
	}
	fmt.Println("\nwrote trace.json — open it in ui.perfetto.dev or chrome://tracing")
}
