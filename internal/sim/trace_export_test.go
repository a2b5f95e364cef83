package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// perfettoDoc mirrors the JSON container the exporter writes.
type perfettoDoc struct {
	TraceEvents []struct {
		Name  string          `json:"name"`
		Phase string          `json:"ph"`
		TS    int64           `json:"ts"`
		PID   int             `json:"pid"`
		TID   int             `json:"tid"`
		Args  json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

func TestPerfettoRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	pt := NewPerfettoTracer(&buf)
	cfg := schemeConfig(t, "part-adaptive")
	cfg.Tracer = pt
	mustRun(t, cfg, tracedKernel(t))
	if err := pt.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter did not produce valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}

	var prevTS int64 = -1
	sawIssue := false
	for _, e := range doc.TraceEvents {
		if e.Phase == "M" {
			continue // metadata records carry no timestamp
		}
		if e.TS < prevTS {
			t.Fatalf("ts went backwards: %d after %d", e.TS, prevTS)
		}
		prevTS = e.TS
		if e.PID != 0 {
			t.Errorf("pid = %d on a 1-SM run, want 0", e.PID)
		}
		if e.Name == "issue" {
			sawIssue = true
			// tid maps to warp slot + 1 (tid 0 is the SM pseudo-thread);
			// the test kernel runs a single warp in slot 0.
			if e.TID != 1 {
				t.Errorf("issue event tid = %d, want 1 (warp slot 0)", e.TID)
			}
		}
	}
	if !sawIssue {
		t.Error("no issue events in the trace")
	}

	// The process metadata names the SM.
	if !strings.Contains(buf.String(), `"SM 0"`) {
		t.Error("missing SM process_name metadata")
	}
}

func TestPerfettoEmptyFlushIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	pt := NewPerfettoTracer(&buf)
	if err := pt.Flush(); err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v (%q)", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Errorf("empty trace has %d events", len(doc.TraceEvents))
	}
}

func TestPerfettoModeSwitchCounterTrack(t *testing.T) {
	var buf bytes.Buffer
	pt := NewPerfettoTracer(&buf)
	pt.Event(TraceEvent{Cycle: 50, SM: 0, Kind: TraceModeSwitch, Warp: -1, PC: -1, Detail: "FRF low power"})
	pt.Event(TraceEvent{Cycle: 100, SM: 0, Kind: TraceModeSwitch, Warp: -1, PC: -1, Detail: "FRF high power"})
	if err := pt.Flush(); err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var counterVals []string
	for _, e := range doc.TraceEvents {
		if e.Phase == "C" && e.Name == "frf_low_power" {
			counterVals = append(counterVals, string(e.Args))
		}
	}
	if len(counterVals) != 2 {
		t.Fatalf("counter records = %d, want 2", len(counterVals))
	}
	if !strings.Contains(counterVals[0], "1") || !strings.Contains(counterVals[1], "0") {
		t.Errorf("counter values = %v, want low=1 then high=0", counterVals)
	}
}

func TestNDJSONTracer(t *testing.T) {
	var buf bytes.Buffer
	nt := NewNDJSONTracer(&buf)
	cfg := testConfig()
	cfg.Tracer = nt
	mustRun(t, cfg, tracedKernel(t))
	if err := nt.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("no NDJSON lines")
	}
	kinds := map[string]int{}
	for i, line := range lines {
		var e ndjsonEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v (%q)", i, err, line)
		}
		kinds[e.Kind]++
	}
	if kinds["issue"] != 6 {
		t.Errorf("NDJSON issue events = %d, want 6", kinds["issue"])
	}
	if kinds["warp-retire"] != 1 {
		t.Errorf("NDJSON warp-retire events = %d, want 1", kinds["warp-retire"])
	}
}

func TestTeeTracerFansOut(t *testing.T) {
	r1 := NewRingTracer(64)
	r2 := NewRingTracer(64)
	tee := NewTeeTracer(r1, nil, r2)
	tee.Event(TraceEvent{Kind: TraceIssue})
	tee.Event(TraceEvent{Kind: TraceDispatch})
	for i, r := range []*RingTracer{r1, r2} {
		if got := r.CountKind(TraceIssue) + r.CountKind(TraceDispatch); got != 2 {
			t.Errorf("tracer %d saw %d events, want 2", i, got)
		}
	}
}

func TestFilterTracerByKindAndSM(t *testing.T) {
	ring := NewRingTracer(64)
	ft := NewFilterTracer(ring, 1, TraceIssue, TraceModeSwitch)
	ft.Event(TraceEvent{SM: 1, Kind: TraceIssue})      // pass
	ft.Event(TraceEvent{SM: 0, Kind: TraceIssue})      // wrong SM
	ft.Event(TraceEvent{SM: 1, Kind: TraceDispatch})   // wrong kind
	ft.Event(TraceEvent{SM: 1, Kind: TraceModeSwitch}) // pass
	if got := len(ring.Events()); got != 2 {
		t.Errorf("filter passed %d events, want 2", got)
	}
}

func TestFilterTracerDefaultsToAll(t *testing.T) {
	ring := NewRingTracer(64)
	ft := NewFilterTracer(ring, -1)
	ft.Event(TraceEvent{SM: 3, Kind: TraceBarrier})
	ft.Event(TraceEvent{SM: 0, Kind: TraceIssue})
	if got := len(ring.Events()); got != 2 {
		t.Errorf("unfiltered tracer passed %d events, want 2", got)
	}
}

func TestFlushTracerOnUnbuffered(t *testing.T) {
	if err := FlushTracer(NewRingTracer(4)); err != nil {
		t.Errorf("flushing an unbuffered tracer: %v", err)
	}
	if err := FlushTracer(nil); err != nil {
		t.Errorf("flushing nil: %v", err)
	}
}

func TestTeeFlushReachesChildren(t *testing.T) {
	var buf bytes.Buffer
	wt := &WriterTracer{W: &buf}
	tee := NewTeeTracer(NewRingTracer(8), wt)
	tee.Event(TraceEvent{Cycle: 1, Kind: TraceIssue, Warp: 0, PC: 0})
	if buf.Len() != 0 {
		t.Fatal("writer flushed before Flush")
	}
	if err := tee.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "issue") {
		t.Errorf("tee flush did not drain the writer: %q", buf.String())
	}
}
