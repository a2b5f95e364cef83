package telemetry

import (
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("issued")
	c1.Add(5)
	if c2 := r.Counter("issued"); c2 != c1 {
		t.Error("second Counter lookup returned a different instance")
	}
	r.Gauge("depth").Set(3)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d points, want 2", len(snap))
	}
	// Sorted by name: depth before issued.
	if snap[0].Name != "depth" || snap[0].Value != 3 {
		t.Errorf("snap[0] = %+v", snap[0])
	}
	if snap[1].Name != "issued" || snap[1].Value != 5 {
		t.Errorf("snap[1] = %+v", snap[1])
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on counter/gauge name collision")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}

func TestCounterConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	ts := NewTimeSeries("cycle", "sm", "issued")
	scratch := []float64{50, 0, 12}
	ts.Append(scratch)
	scratch[2] = 99 // caller reuse must not corrupt the stored row
	ts.Append([]float64{100, 0, 7.5})
	var sb strings.Builder
	if err := ts.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "cycle,sm,issued\n50,0,12\n100,0,7.5\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

func TestTimeSeriesRowWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on row width mismatch")
		}
	}()
	NewTimeSeries("a", "b").Append([]float64{1})
}

func TestRecorderKernelSeq(t *testing.T) {
	r := NewRecorder(50, "kernel", "cycle")
	if got := r.BeginKernel(); got != 1 {
		t.Errorf("first kernel seq = %d", got)
	}
	if got := r.BeginKernel(); got != 2 {
		t.Errorf("second kernel seq = %d", got)
	}
	r.Append([]float64{2, 50})
	if r.Series().Len() != 1 {
		t.Errorf("series rows = %d, want 1", r.Series().Len())
	}
}

func TestStallBreakdownTotalAndTable(t *testing.T) {
	var b StallBreakdown
	b[StallScoreboard] = 30
	b[StallMemoryPending] = 70
	if b.Total() != 100 {
		t.Errorf("total = %d, want 100", b.Total())
	}
	var o StallBreakdown
	o[StallScoreboard] = 5
	b.AddBreakdown(o)
	if b[StallScoreboard] != 35 || b.Total() != 105 {
		t.Errorf("after add: %v", b)
	}
	tab := b.Table()
	for _, c := range StallCauses() {
		if !strings.Contains(tab, c.String()) {
			t.Errorf("table missing cause %s:\n%s", c, tab)
		}
	}
	if !strings.Contains(tab, "total") {
		t.Errorf("table missing total row:\n%s", tab)
	}
}

func TestStallCauseNames(t *testing.T) {
	want := map[StallCause]string{
		StallCollectorFull: "collector-full",
		StallMemoryPending: "memory-pending",
		StallBankConflict:  "bank-conflict",
		StallScoreboard:    "scoreboard",
		StallBarrier:       "barrier",
		StallPilotDrain:    "pilot-drain",
		StallNoReadyWarp:   "no-ready-warp",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), name)
		}
	}
}

func TestLiveEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sim.issued").Add(123)
	ls, err := StartLive("127.0.0.1:0", reg)
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ls.Close()

	resp, err := http.Get("http://" + ls.Addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "sim_issued 123") {
		t.Errorf("/metrics = %q, want Prometheus sample sim_issued 123", sb.String())
	}
	if !strings.Contains(sb.String(), "# TYPE sim_issued counter") {
		t.Errorf("/metrics = %q, want a # TYPE comment", sb.String())
	}

	vars, err := http.Get("http://" + ls.Addr + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	vars.Body.Close()
	if vars.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars status = %d", vars.StatusCode)
	}
}
