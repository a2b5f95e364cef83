// Package trace is the repository's causal observability layer: spans
// connecting an HTTP batch request (or a CLI invocation) to the
// campaign cells, pool tasks, and individual simulated trials it fans
// out into.
//
// The design constraint — inherited from the observers before it
// (telemetry, flightrec, perfscope's census) and load-bearing for
// fleet campaigns spread over worker nodes — is that the span *tree*
// is deterministic: span and trace IDs derive from content (the jobs
// cache-key preimages, submission indices, spec fingerprints), never
// from wall clock or randomness, so the same campaign produces an
// identical tree of IDs, parentage, and annotations whether the pool
// runs one worker or sixty-four, on this machine or a remote worker
// node. Everything nondeterministic — timestamps, queue waits, which
// worker ran a task — lives in a clearly-marked optional Wall section,
// like the wall section of a perfscope report entry, and is excluded
// from the reproducibility contract.
//
// Spans are exported three ways:
//
//   - pilotrf-spans/v1 NDJSON (WriteSpans / ReadSpans, the reader
//     validating IDs and intervals and never panicking on garbage),
//   - Chrome trace_event JSON (WritePerfetto), the same envelope the
//     sim package's PerfettoTracer writes, so span waterfalls open in
//     ui.perfetto.dev next to SM pipeline traces,
//   - the pilotserve GET /v1/jobs/{id}/trace endpoint, which serves a
//     validated tree per job.
//
// Recording is nil-guarded end to end: a zero SpanContext (no recorder
// in the context) makes every hook a no-op branch, so the disabled
// pool/campaign hot path allocates nothing and produces bit-identical
// output — both test-asserted.
package trace

import (
	"fmt"
	"time"
)

// Schema identifies the span NDJSON format; bump on incompatible
// change.
const Schema = "pilotrf-spans/v1"

// Wall is the nondeterministic section of a span: wall-clock interval
// plus free-form annotations that depend on scheduling (worker id,
// queue wait). It is excluded from the deterministic span-tree
// contract; StripWall removes it for reproducibility comparisons.
type Wall struct {
	// StartUnixNS and EndUnixNS bound the span in Unix nanoseconds.
	StartUnixNS int64 `json:"start_unix_ns"`
	EndUnixNS   int64 `json:"end_unix_ns"`
	// Attrs carries nondeterministic annotations (e.g. "worker",
	// "queue_ns").
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span is one completed node of a trace tree.
type Span struct {
	// Trace is the 32-hex-digit trace id every span of one tree shares
	// (W3C trace-id shaped, so it propagates through traceparent).
	Trace string `json:"trace"`
	// ID is the 16-hex-digit span id, derived deterministically from
	// the parent id and content parts.
	ID string `json:"span"`
	// Parent is the parent span's id; empty marks the tree root.
	Parent string `json:"parent,omitempty"`
	// Name labels the operation ("job", "campaign", "golden", "cell",
	// "trial", "pool.task", ...).
	Name string `json:"name"`
	// Attrs carries deterministic annotations (design, workload,
	// protection scheme, trial outcome, cache hit/miss).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Wall is the optional nondeterministic section.
	Wall *Wall `json:"wall,omitempty"`
}

// FNV-1a 64-bit parameters (matching internal/jobs cache keys).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	// fnvAltSeed seeds the second hash of a 128-bit trace id; any
	// constant different from fnvOffset works, this one is the 64-bit
	// golden ratio used as a mixer.
	fnvAltSeed = fnvOffset ^ 0x9E3779B97F4A7C15
)

// fnvParts hashes the parts with NUL separators so distinct part lists
// never collide textually.
func fnvParts(seed uint64, parts []string) uint64 {
	h := seed
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= fnvPrime
		}
		h ^= 0x1F // separator byte outside the flag-derived alphabet
		h *= fnvPrime
	}
	if h == 0 {
		h = 1 // all-zero ids are invalid in W3C trace context
	}
	return h
}

// TraceID derives a deterministic 32-hex-digit trace id from content
// parts: equal parts always produce the same id, and the id is valid as
// a W3C traceparent trace-id (lowercase hex, never all zero).
func TraceID(parts ...string) string {
	return fmt.Sprintf("%016x%016x", fnvParts(fnvOffset, parts), fnvParts(fnvAltSeed, parts))
}

// SpanID derives a deterministic 16-hex-digit span id from content
// parts (conventionally the parent span id, the span name, and any
// disambiguators such as a submission index or a cache-key hex).
func SpanID(parts ...string) string {
	return fmt.Sprintf("%016x", fnvParts(fnvOffset, parts))
}

// isHexLower reports whether s is entirely lowercase hex digits.
func isHexLower(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// isZeroHex reports whether s is all '0' digits.
func isZeroHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// ValidTraceID reports whether s is a well-formed trace id (32
// lowercase hex digits, not all zero).
func ValidTraceID(s string) bool {
	return len(s) == 32 && isHexLower(s) && !isZeroHex(s)
}

// ValidSpanID reports whether s is a well-formed span id (16 lowercase
// hex digits, not all zero).
func ValidSpanID(s string) bool {
	return len(s) == 16 && isHexLower(s) && !isZeroHex(s)
}

// ParseTraceparent parses a W3C traceparent header value
// (version-format "00-<trace-id>-<parent-id>-<flags>"), returning the
// trace and parent span ids. ok is false for anything malformed: wrong
// length, bad separators, uppercase or non-hex digits, all-zero ids, or
// the forbidden version ff.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	ver := h[0:2]
	if !isHexLower(ver) || ver == "ff" {
		return "", "", false
	}
	// Per the spec, future versions may append fields after the flags;
	// an unknown version is accepted as long as the first four fields
	// parse. Version 00 must be exactly 55 characters.
	if ver == "00" && len(h) != 55 {
		return "", "", false
	}
	traceID, spanID = h[3:35], h[36:52]
	if !ValidTraceID(traceID) || !ValidSpanID(spanID) || !isHexLower(h[53:55]) {
		return "", "", false
	}
	return traceID, spanID, true
}

// FormatTraceparent renders a version-00 traceparent header value with
// the sampled flag set.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// StripWall returns a copy of the spans with every Wall section
// removed — the deterministic projection two runs of the same campaign
// must agree on byte-for-byte.
func StripWall(spans []Span) []Span {
	out := make([]Span, len(spans))
	for i, s := range spans {
		s.Wall = nil
		out[i] = s
	}
	return out
}

// nowUnixNS is the single wall-clock read; time.Now does not allocate.
func nowUnixNS() int64 { return time.Now().UnixNano() }
