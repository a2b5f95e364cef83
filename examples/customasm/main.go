// Customasm: ship a kernel as an assembly file (embedded at build time),
// assemble it with the public API, verify its reconvergence structure,
// and run it across the register file designs.
package main

import (
	_ "embed"
	"fmt"
	"log"

	"pilotrf"
)

//go:embed reduce.asm
var source string

func main() {
	prog, err := pilotrf.Assemble(source)
	if err != nil {
		log.Fatal(err)
	}
	if err := pilotrf.CheckReconvergence(prog); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled %s: %d instructions, %d registers/thread\n\n",
		prog.Name, prog.Len(), prog.NumRegs)

	for _, d := range []struct {
		name   string
		scheme string
		prof   pilotrf.Technique
	}{
		{"MRF @ STV", "mrf-stv", pilotrf.ProfileStaticFirstN},
		{"MRF @ NTV", "mrf-ntv", pilotrf.ProfileStaticFirstN},
		{"Partitioned+Adaptive", "part-adaptive", pilotrf.ProfileHybrid},
	} {
		s, err := pilotrf.NewSimulator(pilotrf.Options{
			SMs: 1, Scheme: d.scheme, Profiling: d.prof,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.RunKernels(prog.Name, []pilotrf.Kernel{
			{Prog: prog, ThreadsPerCTA: 256, NumCTAs: 48},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s cycles=%-7d FRF=%3.0f%%  dyn.saving=%5.1f%%\n",
			d.name, res.Cycles(), res.FRFShare()*100, res.DynamicSavings()*100)
	}
}
