// Profilingdemo: write a custom kernel with the public kernel builder and
// watch the three profiling techniques at work. The kernel hides its hot
// registers inside a loop (a Category 2 shape), so the compiler's static
// census picks the wrong set, the pilot warp finds the right one, and the
// hybrid technique combines both.
package main

import (
	"fmt"
	"log"

	"pilotrf"
)

// buildKernel assembles a Category 2 style kernel: a text-heavy setup on
// R0..R2 followed by a hot accumulation loop on R8/R9.
func buildKernel() *pilotrf.Program {
	b := pilotrf.NewKernelBuilder("demo", 12)
	b.S2R(pilotrf.R(0), pilotrf.SRTid)
	b.S2R(pilotrf.R(1), pilotrf.SRCTAid)
	// Unrolled setup: R0-R2 appear often in the text but run once.
	for i := 0; i < 5; i++ {
		b.IMAD(pilotrf.R(2), pilotrf.R(0), pilotrf.R(1), pilotrf.R(2))
		b.XOR(pilotrf.R(0), pilotrf.R(0), pilotrf.R(2))
	}
	b.SHLI(pilotrf.R(8), pilotrf.R(2), 2) // cursor (dynamically hot)
	b.MOVI(pilotrf.R(9), 0)               // accumulator (dynamically hot)
	b.CountedLoop(pilotrf.R(3), pilotrf.P(0), 50, func() {
		b.LDS(pilotrf.R(10), pilotrf.R(8), 0)
		b.IMAD(pilotrf.R(9), pilotrf.R(10), pilotrf.R(10), pilotrf.R(9))
		b.IADDI(pilotrf.R(8), pilotrf.R(8), 4)
	})
	b.STG(pilotrf.R(8), 0, pilotrf.R(9))
	b.EXIT()
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return prog
}

func main() {
	prog := buildKernel()
	fmt.Println("kernel under test:")
	fmt.Println(prog.Disassemble())

	techniques := []struct {
		name string
		t    pilotrf.Technique
	}{
		{"static-first-4", pilotrf.ProfileStaticFirstN},
		{"compiler", pilotrf.ProfileCompiler},
		{"pilot warp", pilotrf.ProfilePilot},
		{"hybrid", pilotrf.ProfileHybrid},
	}

	fmt.Printf("%-16s %10s %12s %14s\n", "technique", "cycles", "FRF share", "dyn. saving")
	for _, tech := range techniques {
		s, err := pilotrf.NewSimulator(pilotrf.Options{
			SMs: 1, Scheme: "part-adaptive", Profiling: tech.t,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.RunKernels("demo", []pilotrf.Kernel{
			{Prog: prog, ThreadsPerCTA: 256, NumCTAs: 64},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %10d %11.0f%% %13.1f%%\n",
			tech.name, res.Cycles(), res.FRFShare()*100, res.DynamicSavings()*100)
	}

	fmt.Println("\nThe loop registers (R8/R9 and the counter) dominate dynamically, so")
	fmt.Println("the pilot warp and the hybrid technique route most accesses to the")
	fmt.Println("fast partition; the static census is fooled by the unrolled setup.")
}
