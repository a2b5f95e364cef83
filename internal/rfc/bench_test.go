package rfc

import (
	"testing"

	"pilotrf/internal/isa"
)

func BenchmarkReadHit(b *testing.B) {
	c := New(6, 8, nil)
	c.Write(0, isa.R(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(0, isa.R(5))
	}
}

func BenchmarkReadMissAllocate(b *testing.B) {
	c := New(6, 8, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycle through more registers than entries so every read
		// misses and allocates.
		c.Read(0, isa.Reg(i%16))
	}
}

func BenchmarkWriteEvict(b *testing.B) {
	c := New(6, 8, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(0, isa.Reg(i%16))
	}
}

func BenchmarkFlushWarp(b *testing.B) {
	c := New(6, 8, nil)
	var buf []isa.Reg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 6; r++ {
			c.Write(0, isa.Reg(r))
		}
		buf = c.FlushWarp(0, buf[:0])
	}
}
