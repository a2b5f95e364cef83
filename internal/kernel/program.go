// Package kernel defines the program representation executed by the GPU
// simulator and a builder for assembling programs with labels and
// structured control flow. It also provides the static register census the
// compiler-based profiler consumes.
package kernel

import (
	"fmt"
	"strings"

	"pilotrf/internal/isa"
	"pilotrf/internal/stats"
)

// Program is a validated, fully linked kernel binary.
type Program struct {
	Name    string
	NumRegs int // architected registers allocated per thread
	Instrs  []isa.Instruction
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// At returns the instruction at pc.
func (p *Program) At(pc int) *isa.Instruction { return &p.Instrs[pc] }

// StaticRegCounts returns, for each architected register, the number of
// times it appears in the program text (reads plus writes). This is exactly
// the census the paper's instrumented PTX compiler reports and the
// compiler-based profiler consumes: it is blind to loop trip counts and
// branch behaviour.
func (p *Program) StaticRegCounts() *stats.Histogram {
	h := stats.NewHistogram(p.NumRegs)
	var scratch []isa.Reg
	for i := range p.Instrs {
		in := &p.Instrs[i]
		scratch = in.SrcRegs(scratch[:0])
		for _, r := range scratch {
			h.Inc(int(r))
		}
		if d, ok := in.DstReg(); ok {
			h.Inc(int(d))
		}
	}
	return h
}

// Disassemble returns a human-readable listing of the program.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s: %d instructions, %d registers/thread\n", p.Name, len(p.Instrs), p.NumRegs)
	for pc := range p.Instrs {
		fmt.Fprintf(&b, "%4d: %s\n", pc, p.Instrs[pc].String())
	}
	return b.String()
}

// Validate re-checks every instruction against the program bounds and the
// register budget, and that no lane can run past the last instruction:
// branch targets lie inside the program, so the last instruction must be
// an unguarded EXIT or BRA. Build already guarantees the bounds and the
// budget; Validate exists for programs constructed or mutated by hand.
func (p *Program) Validate() error {
	if p.NumRegs <= 0 || p.NumRegs > isa.MaxRegs {
		return fmt.Errorf("kernel %s: %d registers/thread outside (0,%d]", p.Name, p.NumRegs, isa.MaxRegs)
	}
	if len(p.Instrs) == 0 {
		return fmt.Errorf("kernel %s: empty program", p.Name)
	}
	var scratch []isa.Reg
	hasExit := false
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		if err := in.Validate(len(p.Instrs)); err != nil {
			return fmt.Errorf("kernel %s pc %d: %w", p.Name, pc, err)
		}
		scratch = in.SrcRegs(scratch[:0])
		for _, r := range scratch {
			if int(r) >= p.NumRegs {
				return fmt.Errorf("kernel %s pc %d: source %s exceeds register budget %d", p.Name, pc, r, p.NumRegs)
			}
		}
		if d, ok := in.DstReg(); ok && int(d) >= p.NumRegs {
			return fmt.Errorf("kernel %s pc %d: destination %s exceeds register budget %d", p.Name, pc, d, p.NumRegs)
		}
		if in.Op == isa.OpEXIT {
			hasExit = true
		}
	}
	if !hasExit {
		return fmt.Errorf("kernel %s: program has no EXIT", p.Name)
	}
	if last := &p.Instrs[len(p.Instrs)-1]; last.Guard != isa.GuardAlways || last.Op != isa.OpEXIT && last.Op != isa.OpBRA {
		return fmt.Errorf("kernel %s pc %d: last instruction %s can fall through past the end; end with an unguarded EXIT or BRA",
			p.Name, len(p.Instrs)-1, last.String())
	}
	return nil
}

// Kernel couples a program with its launch geometry.
type Kernel struct {
	Prog          *Program
	ThreadsPerCTA int
	NumCTAs       int
}

// Validate checks the launch geometry.
func (k *Kernel) Validate() error {
	if err := k.Prog.Validate(); err != nil {
		return err
	}
	if k.ThreadsPerCTA <= 0 || k.ThreadsPerCTA > 1024 {
		return fmt.Errorf("kernel %s: %d threads/CTA outside (0,1024]", k.Prog.Name, k.ThreadsPerCTA)
	}
	if k.NumCTAs <= 0 {
		return fmt.Errorf("kernel %s: %d CTAs", k.Prog.Name, k.NumCTAs)
	}
	return nil
}

// TotalThreads returns the number of threads launched by the kernel.
func (k *Kernel) TotalThreads() int { return k.ThreadsPerCTA * k.NumCTAs }

// WarpsPerCTA returns the number of 32-thread warps per CTA (rounded up).
func (k *Kernel) WarpsPerCTA() int { return (k.ThreadsPerCTA + 31) / 32 }
