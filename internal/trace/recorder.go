package trace

import (
	"context"
	"sync"
)

// Recorder collects completed spans of one trace. The zero value is
// not used directly; create with NewRecorder. A nil *Recorder is a
// valid no-op sink (every method nil-guards), mirroring the nil-Cache
// convention in internal/jobs.
type Recorder struct {
	wall bool

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder. When wallClock is true,
// completed spans carry a Wall section (timestamps + scheduling
// annotations); when false the recorder emits only the deterministic
// fields, so two runs of the same work produce byte-identical span
// sets regardless of worker count.
func NewRecorder(wallClock bool) *Recorder {
	return &Recorder{wall: wallClock}
}

// WallClock reports whether this recorder stamps wall-clock sections.
func (r *Recorder) WallClock() bool { return r != nil && r.wall }

// add appends a completed span.
func (r *Recorder) add(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Len returns the number of completed spans recorded so far.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns the completed spans in canonical tree order (parents
// before children, siblings sorted by name then id — see SortSpans),
// independent of the wall-clock order workers finished them in.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	return SortSpans(out)
}

// Root opens the root span of a new trace on this recorder. traceID
// should come from TraceID (or an inbound traceparent); idParts
// disambiguate the root span id. Returns nil (a valid no-op span) when
// the recorder is nil.
func (r *Recorder) Root(name, traceID string, idParts ...string) *ActiveSpan {
	if r == nil {
		return nil
	}
	return newActive(r, traceID, "", name, idParts)
}

// Adopt returns a SpanContext pointing at a span that lives in another
// process — the fleet worker's bridge for a traceparent carried across
// the wire. Children started on the returned context parent under the
// remote span id, so when the worker's completed spans are shipped back
// and Import-ed into the coordinator's recorder, the remote subtree
// hangs under the coordinator's span exactly as if it had run locally.
// Returns the inactive zero context when the recorder is nil or either
// id is malformed, so garbage traceparents degrade to no tracing rather
// than a torn tree.
func (r *Recorder) Adopt(traceID, spanID string) SpanContext {
	if r == nil || !ValidTraceID(traceID) || !ValidSpanID(spanID) {
		return SpanContext{}
	}
	return SpanContext{rec: r, traceID: traceID, spanID: spanID}
}

// Import appends completed spans recorded elsewhere (a fleet worker's
// subtree shipped back with its result). Spans with malformed ids are
// dropped rather than poisoning the tree; parentage is not validated
// here — BuildTree remains the single consistency gate at serve time.
// Safe on a nil recorder (no-op).
func (r *Recorder) Import(spans []Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for _, s := range spans {
		if !ValidTraceID(s.Trace) || !ValidSpanID(s.ID) {
			continue
		}
		if s.Parent != "" && !ValidSpanID(s.Parent) {
			continue
		}
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// SpanContext identifies an open span for propagation across API
// boundaries (contexts, batches, goroutines). The zero value is
// inactive: Start on it returns nil and NewContext returns the context
// unchanged, which is what makes the disabled path zero-alloc.
type SpanContext struct {
	rec     *Recorder
	traceID string
	spanID  string
}

// Active reports whether the context belongs to a live recorder.
func (sc SpanContext) Active() bool { return sc.rec != nil }

// TraceID returns the 32-hex trace id ("" when inactive).
func (sc SpanContext) TraceID() string { return sc.traceID }

// SpanID returns the 16-hex id of the span this context points at.
func (sc SpanContext) SpanID() string { return sc.spanID }

// WallClock reports whether the owning recorder stamps wall sections —
// callers use it to skip computing wall-only annotations (queue waits)
// when they would be discarded.
func (sc SpanContext) WallClock() bool { return sc.rec != nil && sc.rec.wall }

// Start opens a child span under this context. The child's id is
// derived deterministically from the parent id, the name, and the
// extra parts (pass a submission index or cache-key hex to keep
// same-name siblings distinct). Returns nil when the context is
// inactive; all ActiveSpan methods accept a nil receiver.
func (sc SpanContext) Start(name string, idParts ...string) *ActiveSpan {
	if sc.rec == nil {
		return nil
	}
	return newActive(sc.rec, sc.traceID, sc.spanID, name, idParts)
}

// ActiveSpan is an open span being populated. It is not safe for
// concurrent mutation — each span belongs to the goroutine that
// started it — but distinct spans of one recorder may end concurrently.
// All methods are nil-safe so call sites need no disabled-path guards.
type ActiveSpan struct {
	rec   *Recorder
	span  Span
	ended bool
}

func newActive(r *Recorder, traceID, parent, name string, idParts []string) *ActiveSpan {
	parts := make([]string, 0, len(idParts)+2)
	parts = append(parts, parent, name)
	parts = append(parts, idParts...)
	a := &ActiveSpan{rec: r, span: Span{
		Trace:  traceID,
		ID:     SpanID(parts...),
		Parent: parent,
		Name:   name,
	}}
	if r.wall {
		a.span.Wall = &Wall{StartUnixNS: nowUnixNS()}
	}
	return a
}

// Context returns a SpanContext pointing at this span, for starting
// children (possibly on other goroutines). Safe on nil.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{rec: a.rec, traceID: a.span.Trace, spanID: a.span.ID}
}

// SetAttr records a deterministic annotation. Keys must not depend on
// scheduling; use SetWallAttr for anything nondeterministic.
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil {
		return
	}
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string)
	}
	a.span.Attrs[key] = value
}

// SetWallAttr records a nondeterministic annotation (worker id, queue
// wait). No-op when the recorder does not stamp wall sections, so the
// deterministic projection is unaffected.
func (a *ActiveSpan) SetWallAttr(key, value string) {
	if a == nil || a.span.Wall == nil {
		return
	}
	if a.span.Wall.Attrs == nil {
		a.span.Wall.Attrs = make(map[string]string)
	}
	a.span.Wall.Attrs[key] = value
}

// SetWallStart overrides the wall-clock start (Unix ns) — used when
// the operation began before the span object could be created, e.g.
// queue spans that start at admission time. No-op without a wall
// section.
func (a *ActiveSpan) SetWallStart(unixNS int64) {
	if a == nil || a.span.Wall == nil {
		return
	}
	a.span.Wall.StartUnixNS = unixNS
}

// End stamps the wall-clock end (when enabled) and commits the span to
// the recorder. Idempotent: second and later calls are no-ops, so
// deferred cleanup Ends are safe after an explicit End.
func (a *ActiveSpan) End() {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	if a.span.Wall != nil {
		a.span.Wall.EndUnixNS = nowUnixNS()
		if a.span.Wall.EndUnixNS < a.span.Wall.StartUnixNS {
			a.span.Wall.EndUnixNS = a.span.Wall.StartUnixNS
		}
	}
	a.rec.add(a.span)
}

// ctxKey is the context key for span propagation.
type ctxKey struct{}

// NewContext returns ctx carrying sc. An inactive sc returns ctx
// unchanged (no allocation), keeping the disabled path free.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Active() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the span context from ctx, returning the
// inactive zero value when none is present.
func FromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}
