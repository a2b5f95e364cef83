package sim

import (
	"bufio"
	"fmt"
	"io"
)

// TraceKind classifies pipeline trace events.
type TraceKind uint8

// Trace event kinds, in rough pipeline order.
const (
	TraceCTALaunch TraceKind = iota
	TraceIssue
	TraceBankAccess
	TraceDispatch
	TraceMemStart
	TraceMemDone
	TraceWriteback
	TraceWarpRetire
	TracePilotDone
	TraceModeSwitch
	TraceBarrier
	// TraceEnergy carries one SM-epoch energy sample (TraceEvent.Energy);
	// the Perfetto exporter renders it as per-component counter tracks.
	TraceEnergy
)

// String returns the event kind name.
func (k TraceKind) String() string {
	switch k {
	case TraceCTALaunch:
		return "cta-launch"
	case TraceIssue:
		return "issue"
	case TraceBankAccess:
		return "bank"
	case TraceDispatch:
		return "dispatch"
	case TraceMemStart:
		return "mem-start"
	case TraceMemDone:
		return "mem-done"
	case TraceWriteback:
		return "writeback"
	case TraceWarpRetire:
		return "warp-retire"
	case TracePilotDone:
		return "pilot-done"
	case TraceModeSwitch:
		return "mode-switch"
	case TraceBarrier:
		return "barrier"
	case TraceEnergy:
		return "energy"
	default:
		return fmt.Sprintf("trace-%d", uint8(k))
	}
}

// EnergySample is the payload of a TraceEnergy event: the dynamic
// energy charged to each partition (indexed by regfile.Partition) over
// the epoch that just ended, the SM's leakage integral over the same
// interval, and the interval length.
type EnergySample struct {
	DynamicPJ [4]float64
	LeakagePJ float64
	Cycles    int64
}

// TraceEvent is one pipeline occurrence.
type TraceEvent struct {
	Cycle  int64
	SM     int
	Kind   TraceKind
	Warp   int // SM-local warp slot, -1 when not warp-specific
	PC     int // -1 when not instruction-specific
	Detail string
	// Energy carries the epoch sample of a TraceEnergy event (nil for
	// every other kind).
	Energy *EnergySample
}

// String renders the event as one log line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%8d sm%d %-11s w%-3d pc%-4d %s", e.Cycle, e.SM, e.Kind, e.Warp, e.PC, e.Detail)
}

// Tracer receives pipeline events. Implementations must be cheap; the
// simulator calls them inline.
type Tracer interface {
	Event(TraceEvent)
}

// WriterTracer streams formatted events to an io.Writer through an
// internal buffer; call Flush (or FlushTracer) after the run to drain it.
type WriterTracer struct {
	W io.Writer

	bw *bufio.Writer
}

// Event writes the event as a line.
func (t *WriterTracer) Event(e TraceEvent) {
	if t.bw == nil {
		t.bw = bufio.NewWriterSize(t.W, 1<<16)
	}
	t.bw.WriteString(e.String())
	t.bw.WriteByte('\n')
}

// Flush drains buffered events to the underlying writer.
func (t *WriterTracer) Flush() error {
	if t.bw == nil {
		return nil
	}
	return t.bw.Flush()
}

// RingTracer keeps the last N events in memory (the flight recorder used
// by tests and for post-mortem debugging).
type RingTracer struct {
	buf   []TraceEvent
	next  int
	count int
}

// NewRingTracer returns a tracer holding the last n events.
func NewRingTracer(n int) *RingTracer {
	if n <= 0 {
		panic("sim: ring tracer of non-positive size")
	}
	return &RingTracer{buf: make([]TraceEvent, n)}
}

// Event records an event, evicting the oldest when full.
func (t *RingTracer) Event(e TraceEvent) {
	t.buf[t.next] = e
	t.next = (t.next + 1) % len(t.buf)
	if t.count < len(t.buf) {
		t.count++
	}
}

// Events returns the recorded events, oldest first.
func (t *RingTracer) Events() []TraceEvent {
	out := make([]TraceEvent, 0, t.count)
	start := t.next - t.count
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.count; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// CountKind returns how many recorded events have the given kind. The
// ring buffer is scanned in place — order is irrelevant for counting, so
// no copy of the events is materialized.
func (t *RingTracer) CountKind(k TraceKind) int {
	n := 0
	for i := 0; i < t.count; i++ {
		if t.buf[i].Kind == k {
			n++
		}
	}
	return n
}

// trace formats and emits one tracer event. Callers must hold
// s.cfg.Tracer != nil, so that with no tracer attached the arguments —
// an instruction's disassembly, boxed integers — are never evaluated.
func (s *sm) trace(kind TraceKind, warp, pc int, format string, args ...interface{}) {
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	s.cfg.Tracer.Event(TraceEvent{
		Cycle: s.now, SM: s.id, Kind: kind, Warp: warp, PC: pc, Detail: detail,
	})
}
