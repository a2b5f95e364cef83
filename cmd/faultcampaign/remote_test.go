package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pilotrf/internal/campaign"
	"pilotrf/internal/jobs"
	"pilotrf/internal/trace"
)

// fakeCoordinator mimics the pilotserve /v1/jobs contract this client
// speaks: submit returns a fresh job id, the stream replays scripted
// NDJSON, and behavior knobs inject the failure modes the client must
// survive.
type fakeCoordinator struct {
	mu      sync.Mutex
	submits int
	report  campaign.Report
	// spans is the recorded span tree of report's campaign, and trace
	// its pilotrf-spans/v1 NDJSON, served by GET /v1/jobs/{id}/trace.
	spans []trace.Span
	trace []byte
	// refuse answers the first submits with these statuses, one each,
	// before accepting.
	refuse []int
	// forget404 makes the first stream 404 (restarted coordinator that
	// lost its job table) before behaving normally.
	forget404 bool
	// fail makes every job end "failed" with this message.
	fail string
}

func (f *fakeCoordinator) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		f.mu.Lock()
		f.submits++
		n := f.submits
		refuse := 0
		if n <= len(f.refuse) {
			refuse = f.refuse[n-1]
		}
		f.mu.Unlock()
		if refuse != 0 {
			http.Error(w, fmt.Sprintf("spec refused with %d\nsecond line", refuse), refuse)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"jobs":[{"id":"job-%d","units":4}]}`, n)
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		if strings.HasSuffix(id, "/trace") {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write(f.trace)
			return
		}
		f.mu.Lock()
		forget := f.forget404
		f.forget404 = false
		failMsg := f.fail
		rep := f.report
		f.mu.Unlock()
		if forget {
			http.Error(w, "unknown job "+id, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		_ = enc.Encode(map[string]interface{}{"id": id, "state": "running", "done": 2, "total": 4})
		if failMsg != "" {
			_ = enc.Encode(map[string]interface{}{"id": id, "state": "failed", "done": 2, "total": 4, "error": failMsg})
			return
		}
		_ = enc.Encode(map[string]interface{}{"id": id, "state": "done", "done": 4, "total": 4, "report": rep})
	})
	return mux
}

// newFake returns a fake coordinator serving a real one-cell report
// and its recorded span tree, so client-side bytes compare against
// genuine campaign output.
func newFake(t *testing.T) *fakeCoordinator {
	t.Helper()
	pool, err := jobs.New(jobs.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rec := trace.NewRecorder(true)
	rep, err := campaign.Run(context.Background(), oneCell, campaign.Options{Pool: pool, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	var nd bytes.Buffer
	if err := trace.WriteSpans(&nd, rec.Spans()); err != nil {
		t.Fatal(err)
	}
	return &fakeCoordinator{report: rep, spans: rec.Spans(), trace: nd.Bytes()}
}

// remoteArgs are the flags of the fake coordinator's one-cell
// campaign, run against url, followed by extra.
func remoteArgs(url string, extra ...string) []string {
	return append([]string{"-bench", "sgemm", "-designs", "part-adaptive", "-protect", "none",
		"-trials", "3", "-seed", "42", "-sms", "1", "-coordinator", url}, extra...)
}

// submitCount returns how many submits the fake has received.
func (f *fakeCoordinator) submitCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submits
}

// oneCell is the fake coordinator's campaign spec.
var oneCell = campaign.Spec{Benchmarks: []string{"sgemm"}, Designs: []string{"part-adaptive"},
	Protect: []string{"none"}, Trials: 3, Seed: 42, SMs: 1}

// TestRemoteModeByteIdenticalOutput: -coordinator output must be
// byte-identical to a local run of the same flags.
func TestRemoteModeByteIdenticalOutput(t *testing.T) {
	fake := newFake(t)
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	dir := t.TempDir()
	local := filepath.Join(dir, "local.json")
	remote := filepath.Join(dir, "remote.json")
	var out bytes.Buffer
	if err := run([]string{"-bench", "sgemm", "-designs", "part-adaptive", "-protect", "none",
		"-trials", "3", "-seed", "42", "-sms", "1", "-out", local}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(remoteArgs(ts.URL, "-out", remote), &out); err != nil {
		t.Fatal(err)
	}
	lb, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := os.ReadFile(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lb, rb) {
		t.Fatalf("remote report differs from local:\n%s\n---\n%s", rb, lb)
	}
}

// TestRemoteModeTraceMatchesServer: remote -trace-spans writes the
// coordinator's served NDJSON byte for byte, and -trace-perfetto the
// Perfetto conversion of the served spans, both from one download.
func TestRemoteModeTraceMatchesServer(t *testing.T) {
	fake := newFake(t)
	var downloads atomic.Int32
	h := fake.handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/trace") {
			downloads.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	dir := t.TempDir()
	spans, perf := filepath.Join(dir, "spans.ndjson"), filepath.Join(dir, "trace.json")
	if err := run(remoteArgs(ts.URL, "-out", filepath.Join(dir, "remote.json"),
		"-trace-spans", spans, "-trace-perfetto", perf), io.Discard); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.WritePerfetto(&want, fake.spans); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string][]byte{spans: fake.trace, perf: want.Bytes()} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the coordinator's trace:\n%s\n---\n%s", filepath.Base(path), got, want)
		}
	}
	if n := downloads.Load(); n != 1 {
		t.Errorf("%d trace downloads, want 1", n)
	}
}

// TestRemoteModeTrailingSlash: -coordinator with a trailing slash
// submits once to the coordinator's /v1/jobs, not to a path the server
// redirects as a GET.
func TestRemoteModeTrailingSlash(t *testing.T) {
	fake := newFake(t)
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "remote.json")
	done := make(chan error, 1)
	go func() { done <- run(remoteArgs(ts.URL+"/", "-out", out), io.Discard) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no report after 10s: the client is retrying its submit")
	}
	if n := fake.submitCount(); n != 1 {
		t.Fatalf("submits = %d, want 1", n)
	}
}

// TestRemoteModeRejectedSubmitFailsAtOnce: a 4xx answer to the submit
// is final: one submit, and an error with the server's first line
// within a second.
func TestRemoteModeRejectedSubmitFailsAtOnce(t *testing.T) {
	fake := &fakeCoordinator{refuse: []int{http.StatusBadRequest}}
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	done := make(chan error, 1)
	go func() { done <- run(remoteArgs(ts.URL, "-out", filepath.Join(t.TempDir(), "remote.json")), io.Discard) }()
	var err error
	select {
	case err = <-done:
	case <-time.After(time.Second):
		t.Fatalf("no answer after 1s and %d submits: the client is retrying a 400", fake.submitCount())
	}
	if err == nil || !strings.Contains(err.Error(), "HTTP 400: spec refused with 400") ||
		strings.Contains(err.Error(), "second line") {
		t.Fatalf("error %v, want the server's first line", err)
	}
	if n := fake.submitCount(); n != 1 {
		t.Fatalf("submits = %d, want 1", n)
	}
}

// TestRemoteModeRetriesFullQueue: a 429 (pilotserve's answer to a full
// queue) is retried, and the accepted job's report comes back.
func TestRemoteModeRetriesFullQueue(t *testing.T) {
	fake := newFake(t)
	fake.refuse = []int{http.StatusTooManyRequests}
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	rep, _, err := runRemote(ts.URL, oneCell, false, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, fake.report) {
		t.Fatalf("report %+v, want %+v", rep, fake.report)
	}
	if n := fake.submitCount(); n != 2 {
		t.Fatalf("submits = %d, want 2 (the refused one and the accepted one)", n)
	}
}

// TestRemoteModeReportsRetries: each retry of a request prints one
// line on stderr, so a client whose coordinator is down or busy says
// so; after a 503 to the first submit, the one line, then the report.
func TestRemoteModeReportsRetries(t *testing.T) {
	fake := newFake(t)
	fake.refuse = []int{http.StatusServiceUnavailable}
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	var stderr bytes.Buffer
	rep, _, err := runRemote(ts.URL, oneCell, false, nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, fake.report) {
		t.Fatalf("report %+v, want %+v", rep, fake.report)
	}
	want := "coordinator hiccup (fleet: /v1/jobs: HTTP 503: spec refused with 503); retrying in 100ms\n"
	if got := stderr.String(); got != want {
		t.Fatalf("stderr %q, want %q", got, want)
	}
}

// TestRemoteModeResubmitsAfterRestart: a 404'd job id (coordinator
// restarted) triggers a resubmission, not a failure.
func TestRemoteModeResubmitsAfterRestart(t *testing.T) {
	fake := newFake(t)
	fake.forget404 = true
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	rep, _, err := runRemote(ts.URL, oneCell, false, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("report has %d cells, want 1", len(rep.Cells))
	}
	if n := fake.submitCount(); n != 2 {
		t.Fatalf("submits = %d, want 2 (original + post-restart resubmission)", n)
	}
}

// TestRemoteModeTerminalFailureDoesNotRetry: a job that genuinely
// failed (poison cell) surfaces its error without resubmitting.
func TestRemoteModeTerminalFailureDoesNotRetry(t *testing.T) {
	fake := &fakeCoordinator{fail: "cell 3 is poison: simulator assertion"}
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	_, _, err := runRemote(ts.URL, oneCell, false, nil, io.Discard)
	if err == nil {
		t.Fatal("failed job reported success")
	}
	if !strings.Contains(err.Error(), "poison") {
		t.Fatalf("error lost the job's failure message: %v", err)
	}
	if n := fake.submitCount(); n != 1 {
		t.Fatalf("submits = %d, want 1 (terminal failures must not resubmit)", n)
	}
}
