package asm

import (
	"testing"

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
