package asm

import (
	"errors"
	"testing"

	"pilotrf/internal/cfg"
	"pilotrf/internal/design"
	"pilotrf/internal/kernel"
	"pilotrf/internal/ref"
	"pilotrf/internal/sim"
	"pilotrf/internal/workloads"
)

// FuzzAssemble asserts the assembler never panics on arbitrary source,
// and that every program it accepts prints to text that reassembles to
// the same text (the round trip cmd/pilotasm -dis relies on).
func FuzzAssemble(f *testing.F) {
	f.Add(demoSrc)
	for _, w := range workloads.All() {
		for _, k := range w.Kernels {
			f.Add(Text(k.Prog))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return
		}
		text := Text(p)
		back, err := Assemble(text)
		if err != nil {
			t.Fatalf("printed program does not reassemble: %v\n%s", err, text)
		}
		if again := Text(back); again != text {
			t.Fatalf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text, again)
		}
	})
}

// FuzzAssembleRun asserts that a program pilotasm -check accepts
// (assembly, which validates, plus the reconvergence check) runs without
// a panic as a 64-thread x 2-CTA kernel on one SM under every scheme and
// every scheduling policy, and that each run's warp-instruction,
// thread-instruction, register-read and register-write counts equal the
// reference interpreter's. When any run hits its 50,000-cycle limit the
// reference is skipped: its only backstop is 50M steps per warp.
func FuzzAssembleRun(f *testing.F) {
	f.Add(demoSrc)
	policies := []sim.Policy{sim.PolicyLRR, sim.PolicyGTO, sim.PolicyTL, sim.PolicyFetchGroup}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil || cfg.CheckReconvergence(p) != nil {
			return
		}
		k := &kernel.Kernel{Prog: p, ThreadsPerCTA: 64, NumCTAs: 2}
		type run struct {
			name string
			ks   sim.KernelStats
		}
		var runs []run
		limited := false
		seed := sim.DefaultConfig().Seed
		for _, sch := range design.All() {
			for _, pol := range policies {
				c, err := sim.DefaultConfig().WithScheme(sch, sch.DefaultKnobs())
				if err != nil {
					t.Fatal(err)
				}
				c.NumSMs, c.MaxCycles, c.Policy = 1, 50_000, pol
				g, err := sim.New(c)
				if err != nil {
					t.Fatal(err)
				}
				ks, err := g.RunKernel(k)
				if errors.Is(err, sim.ErrCycleLimit) {
					limited = true
					continue
				}
				if err != nil {
					t.Fatalf("%s/%v: %v\n%s", sch.Name(), pol, err, Text(p))
				}
				runs = append(runs, run{sch.Name() + "/" + pol.String(), ks})
			}
		}
		if limited {
			return
		}
		want, err := ref.Run(k, seed)
		if err != nil {
			t.Fatalf("ref: %v\n%s", err, Text(p))
		}
		for _, r := range runs {
			if r.ks.WarpInstrs != want.WarpInstrs || r.ks.ThreadInstrs != want.ThreadInstrs ||
				r.ks.RegReads != want.RegReads || r.ks.RegWrites != want.RegWrites {
				t.Fatalf("%s: sim %d/%d/%d/%d, ref %d/%d/%d/%d\n%s", r.name,
					r.ks.WarpInstrs, r.ks.ThreadInstrs, r.ks.RegReads, r.ks.RegWrites,
					want.WarpInstrs, want.ThreadInstrs, want.RegReads, want.RegWrites, Text(p))
			}
		}
	})
}
