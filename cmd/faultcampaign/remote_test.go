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
	"strings"
	"sync"
	"testing"
	"time"

	"pilotrf/internal/campaign"
	"pilotrf/internal/jobs"
)

// fakeCoordinator mimics the pilotserve /v1/jobs contract this client
// speaks: submit returns a fresh job id, the stream replays scripted
// NDJSON, and behavior knobs inject the failure modes the client must
// survive.
type fakeCoordinator struct {
	mu      sync.Mutex
	submits int
	report  campaign.Report
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
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"jobs":[{"id":"job-%d","units":4}]}`, n)
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
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

// smallReport computes a real one-cell report for the fake coordinator
// to serve, so client-side bytes compare against genuine campaign
// output.
func smallReport(t *testing.T) campaign.Report {
	t.Helper()
	pool, err := jobs.New(jobs.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	rep, err := campaign.Run(context.Background(), campaign.Spec{
		Benchmarks: []string{"sgemm"}, Designs: []string{"part-adaptive"},
		Protect: []string{"none"}, Trials: 3, Seed: 42, SMs: 1,
	}, campaign.Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRemoteModeByteIdenticalOutput: -coordinator output must be
// byte-identical to a local run of the same flags.
func TestRemoteModeByteIdenticalOutput(t *testing.T) {
	fake := &fakeCoordinator{report: smallReport(t)}
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
	if err := run([]string{"-bench", "sgemm", "-designs", "part-adaptive", "-protect", "none",
		"-trials", "3", "-seed", "42", "-sms", "1", "-coordinator", ts.URL, "-out", remote}, &out); err != nil {
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

// TestRemoteModeTrailingSlash: -coordinator with a trailing slash
// submits once to the coordinator's /v1/jobs, not to a path the server
// redirects as a GET.
func TestRemoteModeTrailingSlash(t *testing.T) {
	fake := &fakeCoordinator{report: smallReport(t)}
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "remote.json")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-bench", "sgemm", "-designs", "part-adaptive", "-protect", "none",
			"-trials", "3", "-seed", "42", "-sms", "1", "-coordinator", ts.URL + "/", "-out", out}, io.Discard)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no report after 10s: the client is retrying its submit")
	}
	fake.mu.Lock()
	submits := fake.submits
	fake.mu.Unlock()
	if submits != 1 {
		t.Fatalf("submits = %d, want 1", submits)
	}
}

// TestRemoteModeResubmitsAfterRestart: a 404'd job id (coordinator
// restarted) triggers a resubmission, not a failure.
func TestRemoteModeResubmitsAfterRestart(t *testing.T) {
	fake := &fakeCoordinator{report: smallReport(t), forget404: true}
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	rep, _, err := runRemote(ts.URL, campaign.Spec{Benchmarks: []string{"sgemm"},
		Designs: []string{"part-adaptive"}, Protect: []string{"none"}, Trials: 3, Seed: 42, SMs: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("report has %d cells, want 1", len(rep.Cells))
	}
	fake.mu.Lock()
	submits := fake.submits
	fake.mu.Unlock()
	if submits != 2 {
		t.Fatalf("submits = %d, want 2 (original + post-restart resubmission)", submits)
	}
}

// TestRemoteModeTerminalFailureDoesNotRetry: a job that genuinely
// failed (poison cell) surfaces its error without resubmitting.
func TestRemoteModeTerminalFailureDoesNotRetry(t *testing.T) {
	fake := &fakeCoordinator{fail: "cell 3 is poison: simulator assertion"}
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	_, _, err := runRemote(ts.URL, campaign.Spec{Benchmarks: []string{"sgemm"},
		Designs: []string{"part-adaptive"}, Protect: []string{"none"}, Trials: 3, Seed: 42, SMs: 1}, nil)
	if err == nil {
		t.Fatal("failed job reported success")
	}
	if !strings.Contains(err.Error(), "poison") {
		t.Fatalf("error lost the job's failure message: %v", err)
	}
	fake.mu.Lock()
	submits := fake.submits
	fake.mu.Unlock()
	if submits != 1 {
		t.Fatalf("submits = %d, want 1 (terminal failures must not resubmit)", submits)
	}
}
