package sim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Flusher is implemented by tracers that buffer output and must be
// flushed when the run completes.
type Flusher interface {
	// Flush forces buffered events out (and finalizes any framing, such
	// as the Perfetto JSON footer).
	Flush() error
}

// FlushTracer flushes t if it buffers output; it is a no-op for
// unbuffered tracers and nil.
func FlushTracer(t Tracer) error {
	if f, ok := t.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// TeeTracer fans every event out to multiple tracers in order, so a
// flight recorder and an exporter can observe the same run without
// bespoke wrappers at every call site.
type TeeTracer struct {
	tracers []Tracer
}

// NewTeeTracer returns a tracer forwarding to each of the given tracers.
// Nil entries are skipped.
func NewTeeTracer(tracers ...Tracer) *TeeTracer {
	t := &TeeTracer{}
	for _, tr := range tracers {
		if tr != nil {
			t.tracers = append(t.tracers, tr)
		}
	}
	return t
}

// Event implements Tracer.
func (t *TeeTracer) Event(e TraceEvent) {
	for _, tr := range t.tracers {
		tr.Event(e)
	}
}

// Flush flushes every buffered child, returning the first error.
func (t *TeeTracer) Flush() error {
	var first error
	for _, tr := range t.tracers {
		if err := FlushTracer(tr); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NDJSONTracer streams events as newline-delimited JSON objects, one
// event per line — the format for piping a run into jq or a log stash.
// Call Flush when the run completes.
type NDJSONTracer struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewNDJSONTracer returns a buffered NDJSON exporter writing to w.
func NewNDJSONTracer(w io.Writer) *NDJSONTracer {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &NDJSONTracer{bw: bw, enc: json.NewEncoder(bw)}
}

// ndjsonEvent is the wire shape of one NDJSON line.
type ndjsonEvent struct {
	Cycle  int64         `json:"cycle"`
	SM     int           `json:"sm"`
	Kind   string        `json:"kind"`
	Warp   int           `json:"warp"`
	PC     int           `json:"pc"`
	Detail string        `json:"detail,omitempty"`
	Energy *ndjsonEnergy `json:"energy,omitempty"`
}

// ndjsonEnergy is the wire shape of a TraceEnergy payload.
type ndjsonEnergy struct {
	MRFPJ     float64 `json:"mrf_pj"`
	FRFHighPJ float64 `json:"frf_high_pj"`
	FRFLowPJ  float64 `json:"frf_low_pj"`
	SRFPJ     float64 `json:"srf_pj"`
	LeakPJ    float64 `json:"leak_pj"`
	Cycles    int64   `json:"cycles"`
}

// Event implements Tracer.
func (t *NDJSONTracer) Event(e TraceEvent) {
	ev := ndjsonEvent{
		Cycle: e.Cycle, SM: e.SM, Kind: e.Kind.String(),
		Warp: e.Warp, PC: e.PC, Detail: e.Detail,
	}
	if e.Energy != nil {
		ev.Energy = &ndjsonEnergy{
			MRFPJ:     e.Energy.DynamicPJ[0],
			FRFHighPJ: e.Energy.DynamicPJ[1],
			FRFLowPJ:  e.Energy.DynamicPJ[2],
			SRFPJ:     e.Energy.DynamicPJ[3],
			LeakPJ:    e.Energy.LeakagePJ,
			Cycles:    e.Energy.Cycles,
		}
	}
	_ = t.enc.Encode(ev)
}

// Flush drains the buffer.
func (t *NDJSONTracer) Flush() error { return t.bw.Flush() }

// PerfettoTracer exports events in the Chrome trace_event JSON format
// ("Trace Event Format"), loadable by chrome://tracing and
// ui.perfetto.dev. Each SM becomes a process (pid), each warp slot a
// thread (tid = slot + 1; tid 0 carries SM-scope events), one simulated
// cycle maps to one microsecond of trace time, and FRF power-mode
// switches additionally emit a "frf_low_power" counter track. The
// simulator's cycle clock is per-kernel, so in a multi-kernel run the
// timestamps of each kernel restart at zero and its events overlay the
// previous kernel's on the timeline (the viewer sorts them; the trace
// stays loadable). Flush MUST be called after the run to emit the JSON
// footer.
type PerfettoTracer struct {
	bw        *bufio.Writer
	started   bool
	closed    bool
	needComma bool
	err       error
	smSeen    map[int]bool
}

// NewPerfettoTracer returns a buffered Perfetto exporter writing to w.
func NewPerfettoTracer(w io.Writer) *PerfettoTracer {
	return &PerfettoTracer{bw: bufio.NewWriterSize(w, 1<<16), smSeen: make(map[int]bool)}
}

// perfettoEvent is one trace_event record.
type perfettoEvent struct {
	Name  string      `json:"name"`
	Cat   string      `json:"cat,omitempty"`
	Phase string      `json:"ph"`
	TS    int64       `json:"ts"`
	PID   int         `json:"pid"`
	TID   int         `json:"tid"`
	Scope string      `json:"s,omitempty"`
	Args  interface{} `json:"args,omitempty"`
}

// perfettoNameArgs names a process in a metadata record.
type perfettoNameArgs struct {
	Name string `json:"name"`
}

// perfettoEventArgs is the payload of a pipeline instant event.
type perfettoEventArgs struct {
	PC     int    `json:"pc"`
	Detail string `json:"detail,omitempty"`
}

// perfettoCounterArgs is the payload of the FRF power-mode counter track.
type perfettoCounterArgs struct {
	Value int `json:"frf_low_power"`
}

// perfettoPJArgs is the payload of an energy counter record.
type perfettoPJArgs struct {
	PJ float64 `json:"pj"`
}

// energyCounterNames names the per-component Perfetto energy counter
// tracks, indexed by regfile.Partition — one track per component per SM
// (each SM is its own Perfetto process).
var energyCounterNames = [4]string{
	"energy_mrf_pj", "energy_frf_high_pj", "energy_frf_low_pj", "energy_srf_pj",
}

// perfettoTID maps a trace event's warp to a Perfetto thread id: warp
// slots shift up by one so tid 0 remains the SM-scope pseudo-thread.
func perfettoTID(warp int) int {
	if warp < 0 {
		return 0
	}
	return warp + 1
}

// Event implements Tracer.
func (t *PerfettoTracer) Event(e TraceEvent) {
	if t.err != nil || t.closed {
		return
	}
	if !t.started {
		t.started = true
		if _, err := t.bw.WriteString(`{"traceEvents":[`); err != nil {
			t.err = err
			return
		}
	}
	if !t.smSeen[e.SM] {
		t.smSeen[e.SM] = true
		t.emit(perfettoEvent{
			Name: "process_name", Phase: "M", PID: e.SM, TID: 0,
			Args: perfettoNameArgs{Name: fmt.Sprintf("SM %d", e.SM)},
		})
	}
	if e.Kind == TraceEnergy {
		// Energy epochs become counter tracks, not instants: one track
		// per component plus a leakage track, all on the SM process.
		if e.Energy != nil {
			for p, name := range energyCounterNames {
				t.emit(perfettoEvent{
					Name: name, Phase: "C", TS: e.Cycle, PID: e.SM, TID: 0,
					Args: perfettoPJArgs{PJ: e.Energy.DynamicPJ[p]},
				})
			}
			t.emit(perfettoEvent{
				Name: "energy_leak_pj", Phase: "C", TS: e.Cycle, PID: e.SM, TID: 0,
				Args: perfettoPJArgs{PJ: e.Energy.LeakagePJ},
			})
		}
		return
	}
	t.emit(perfettoEvent{
		Name: e.Kind.String(), Cat: "pipeline", Phase: "i", TS: e.Cycle,
		PID: e.SM, TID: perfettoTID(e.Warp), Scope: "t",
		Args: perfettoEventArgs{PC: e.PC, Detail: e.Detail},
	})
	if e.Kind == TraceModeSwitch {
		v := 0
		if e.Detail == "FRF low power" {
			v = 1
		}
		t.emit(perfettoEvent{
			Name: "frf_low_power", Phase: "C", TS: e.Cycle, PID: e.SM, TID: 0,
			Args: perfettoCounterArgs{Value: v},
		})
	}
}

// emit writes one record, preceded by a comma for every record after
// the first.
func (t *PerfettoTracer) emit(ev perfettoEvent) {
	if t.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		t.err = err
		return
	}
	if t.needComma {
		if _, err := t.bw.WriteString(",\n"); err != nil {
			t.err = err
			return
		}
	}
	if _, err := t.bw.Write(data); err != nil {
		t.err = err
		return
	}
	t.needComma = true
}

// Flush emits the JSON footer and drains the buffer; the tracer ignores
// events after Flush. Safe to call when no events were recorded.
func (t *PerfettoTracer) Flush() error {
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err != nil {
		return t.err
	}
	if !t.started {
		if _, err := t.bw.WriteString(`{"traceEvents":[`); err != nil {
			return err
		}
	}
	if _, err := t.bw.WriteString("]}\n"); err != nil {
		return err
	}
	return t.bw.Flush()
}
