package sim

import (
	"testing"

	"pilotrf/internal/design"
	"pilotrf/internal/energy"
	"pilotrf/internal/fault"
	"pilotrf/internal/perfscope"
)

// observerCase attaches one observer, or a set of them, to a config.
type observerCase struct {
	name   string
	attach func(*Config)
}

// observerCases lists the sub-benchmarks of BenchmarkObserverTax: no
// observer, each observer alone, all of them together, then the SDC
// digest probe that a campaign's goldens and trials attach. "all" keeps
// the counting sink, which reads every event, in place of the probe.
func observerCases() []observerCase {
	cases := []observerCase{
		{"none", func(*Config) {}},
		{"tracer", func(c *Config) { c.Tracer = &detailTracer{} }},
		{"flightrec", func(c *Config) { c.Record = &countingSink{} }},
		{"telemetry", func(c *Config) {
			c.Stalls = true
			c.Metrics = NewMetricsRecorder(0)
		}},
		{"energy", func(c *Config) { c.Energy = energy.NewLedger(c.RF.Design, 0) }},
		{"perfscope", func(c *Config) { c.Perf = perfscope.New(false) }},
		// The campaign's default rate under SECDED everywhere: strikes
		// land, reads of them are corrected, and no run aborts.
		{"fault", func(c *Config) {
			c.Fault = &fault.Config{Rate: 2e-11, Seed: 1}
			c.Protect = fault.FullSECDED()
		}},
	}
	return append(cases, observerCase{"all", func(c *Config) {
		for _, o := range cases {
			o.attach(c)
		}
	}}, observerCase{"digest", func(c *Config) { c.Record = fault.NewDigestProbe() }})
}

// BenchmarkObserverTax prices each observer: every iteration builds the
// observers and simulates sgemm at scale 0.1 on part-adaptive with them
// attached. Besides ns/op and allocs/op it reports ns per
// warp-instruction.
func BenchmarkObserverTax(b *testing.B) {
	w := scaledWorkload(b, "sgemm", 0.1)
	sch := design.MustLookup("part-adaptive")
	base, err := testConfig().WithScheme(sch, sch.DefaultKnobs())
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range observerCases() {
		b.Run(o.name, func(b *testing.B) {
			b.ReportAllocs()
			var winstrs uint64
			for i := 0; i < b.N; i++ {
				cfg := base
				o.attach(&cfg)
				g, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rs, err := g.RunKernels(w.Name, w.Kernels)
				if err != nil {
					b.Fatal(err)
				}
				for _, k := range rs.Kernels {
					winstrs += k.WarpInstrs
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(winstrs), "ns/winstr")
		})
	}
}
