// Command pilotasm assembles, disassembles, and runs kernels written in
// the textual assembly syntax (see internal/asm).
//
// Usage:
//
//	pilotasm -dis <benchmark>          disassemble a bundled benchmark
//	pilotasm -run <file.s> [flags]     assemble a file and execute it
//	pilotasm -check <file.s>           assemble and validate only
//
// Run flags: -threads (per CTA), -ctas, -design, -profile.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pilotrf/internal/asm"
	"pilotrf/internal/cfg"
	"pilotrf/internal/design"
	"pilotrf/internal/kernel"
	"pilotrf/internal/profile"
	"pilotrf/internal/sim"
	"pilotrf/internal/workloads"
)

func main() {
	var (
		dis        = flag.String("dis", "", "disassemble a bundled benchmark's kernels")
		runFile    = flag.String("run", "", "assemble and run an assembly file")
		check      = flag.String("check", "", "assemble and validate an assembly file")
		dot        = flag.String("dot", "", "assemble a file and emit its control flow graph as Graphviz DOT")
		threads    = flag.Int("threads", 256, "threads per CTA for -run")
		ctas       = flag.Int("ctas", 32, "CTAs for -run")
		designName = flag.String("design", "part-adaptive", strings.Join(design.Names(), " | "))
		prof       = flag.String("profile", "hybrid", "static | compiler | pilot | hybrid")
	)
	flag.Parse()

	switch {
	case *dis != "":
		w, err := workloads.ByName(*dis)
		if err != nil {
			fatal(err)
		}
		for _, k := range w.Kernels {
			fmt.Printf("# %s: %d threads/CTA x %d CTAs\n", k.Prog.Name, k.ThreadsPerCTA, k.NumCTAs)
			fmt.Println(asm.Text(k.Prog))
		}
	case *dot != "":
		prog := mustAssemble(*dot)
		fmt.Print(cfg.Build(prog).Dot())
	case *check != "":
		prog := mustAssemble(*check)
		if err := cfg.CheckReconvergence(prog); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: OK (%d instructions, %d registers/thread, reconvergence points verified)\n",
			prog.Name, prog.Len(), prog.NumRegs)
	case *runFile != "":
		sch, err := design.Resolve(*designName)
		if err != nil {
			badFlag(err)
		}
		tech, err := profile.ParseTechnique(*prof)
		if err != nil {
			badFlag(err)
		}
		prog := mustAssemble(*runFile)
		cfg, err := sim.DefaultConfig().WithScheme(sch, sch.DefaultKnobs())
		if err != nil {
			fatal(err)
		}
		cfg.Profiling = tech
		g, err := sim.New(cfg)
		if err != nil {
			fatal(err)
		}
		k := &kernel.Kernel{Prog: prog, ThreadsPerCTA: *threads, NumCTAs: *ctas}
		ks, err := g.RunKernel(k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("kernel    %s\n", prog.Name)
		fmt.Printf("cycles    %d\n", ks.Cycles)
		fmt.Printf("instrs    %d warp / %d thread\n", ks.WarpInstrs, ks.ThreadInstrs)
		fmt.Printf("accesses  %d reads / %d writes\n", ks.RegReads, ks.RegWrites)
		fmt.Printf("FRF share %.1f%%  (low-mode share of FRF: %.1f%%)\n",
			ks.FRFShare()*100, ks.FRFLowShareOfFRF()*100)
		fmt.Printf("top-4 registers:")
		for _, kv := range ks.RegHist.TopN(4) {
			fmt.Printf("  R%d(%d)", kv.Key, kv.Count)
		}
		fmt.Println()
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func mustAssemble(path string) *kernel.Program {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(string(src))
	if err != nil {
		fatal(err)
	}
	return prog
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// badFlag reports an invalid flag value and exits 2, the status every
// command uses for a command-line error.
func badFlag(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
