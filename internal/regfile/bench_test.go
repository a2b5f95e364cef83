package regfile

import (
	"testing"

	"pilotrf/internal/isa"
)

func BenchmarkSwapTableLookupHit(b *testing.B) {
	st := mustSwapTable(b, 4)
	st.Configure([]isa.Reg{isa.R(8), isa.R(9), isa.R(10), isa.R(11)}, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Lookup(isa.R(8))
	}
}

func BenchmarkSwapTableLookupMiss(b *testing.B) {
	st := mustSwapTable(b, 4)
	st.Configure([]isa.Reg{isa.R(8), isa.R(9), isa.R(10), isa.R(11)}, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Lookup(isa.R(40))
	}
}

func BenchmarkIndexedLookup(b *testing.B) {
	st := NewIndexedSwapTable()
	st.Configure([]isa.Reg{isa.R(8), isa.R(9), isa.R(10), isa.R(11)}, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Lookup(isa.R(8))
	}
}

func BenchmarkRoutePartitioned(b *testing.B) {
	f := mustFile(b, DefaultConfig(DesignPartitionedAdaptive))
	f.Mapper().Configure([]isa.Reg{isa.R(8), isa.R(9), isa.R(10), isa.R(11)}, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = f.Route(f.PhysicalReg(isa.Reg(i % 16)))
	}
}

func BenchmarkAdaptiveTick(b *testing.B) {
	a := mustAdaptive(b, DefaultAdaptiveConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.OnIssue(i % 9)
		a.Tick()
	}
}
