package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"pilotrf/internal/campaign"
	"pilotrf/internal/fleet"
	"pilotrf/internal/jobs"
)

// TestHTTPServerTimeouts pins the slowloris hardening: the serving
// http.Server must bound header and request reads and recycle idle
// connections, and must NOT set a write timeout (progress streams are
// long-lived).
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout not set: slow-header clients pin connections forever")
	}
	if srv.ReadTimeout <= 0 {
		t.Error("ReadTimeout not set: slow-body clients pin connections forever")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout not set: idle keep-alives accumulate")
	}
	if srv.WriteTimeout != 0 {
		t.Error("WriteTimeout set: it would cut off long-lived NDJSON progress streams")
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
}

// TestRetryAfterDeterministicJitter pins the per-client 429 backoff
// hints: stable for a given key, spread across keys, always in [1, 4].
func TestRetryAfterDeterministicJitter(t *testing.T) {
	pinned := map[string]int{
		"alice":    2,
		"bob":      1,
		"10.0.0.1": 3,
		"10.0.0.2": 2,
		"":         1,
	}
	for client, want := range pinned {
		if got := retryAfterSeconds(client); got != want {
			t.Errorf("retryAfterSeconds(%q) = %d, want pinned %d", client, got, want)
		}
	}
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		v := retryAfterSeconds("client-" + strconv.Itoa(i))
		if v < 1 || v > 4 {
			t.Fatalf("retryAfterSeconds out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 3 {
		t.Errorf("jitter barely spreads: only values %v over 64 clients", seen)
	}
}

// TestRetryAfterHeaderUsesClientJitter: the live 429 path carries the
// client's deterministic jitter value, not a constant.
func TestRetryAfterHeaderUsesClientJitter(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1, perClient: 1})
	// alice's first job stays in flight, so her second waits for room
	// under the per-client limit and is rejected with her pinned hint.
	release := holdPool(t, s)
	post := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			strings.NewReader(`{"jobs":[`+testSpecJSON+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", "alice")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := post()
	defer first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: status %d, want 202", first.StatusCode)
	}
	var sr submitResponse
	if err := json.NewDecoder(first.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp := post()
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	want := strconv.Itoa(retryAfterSeconds("alice"))
	if got := resp.Header.Get("Retry-After"); got != want {
		t.Errorf("Retry-After = %q, want %q for client alice", got, want)
	}
	release()
	streamJob(t, ts, sr.Jobs[0].ID)
}

// TestCoordinatorRoleEndToEnd: a coordinator-role server with one fleet
// worker produces reports byte-identical to the standalone path, and
// its /healthz carries the fleet topology while standalone's does not.
func TestCoordinatorRoleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s, ts := newTestServer(t, serverConfig{workers: 2, role: "coordinator", cacheDir: t.TempDir()})
	if s.fleet == nil {
		t.Fatal("coordinator role did not create a fleet coordinator")
	}

	wctx, cancel := context.WithCancel(context.Background())
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- fleet.RunWorker(wctx, fleet.WorkerConfig{Coordinator: ts.URL, Parallel: 2})
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-workerDone:
		case <-time.After(10 * time.Second):
			t.Error("fleet worker did not stop")
		}
	})

	resp := submit(t, ts, `{"jobs":[`+testSpecJSON+`]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	final := streamJob(t, ts, sub.Jobs[0].ID)
	if final.State != "done" {
		t.Fatalf("fleet job failed: %s", final.Error)
	}

	var spec campaign.Spec
	if err := json.Unmarshal([]byte(testSpecJSON), &spec); err != nil {
		t.Fatal(err)
	}
	pool, err := jobs.New(jobs.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	want, err := campaign.Run(context.Background(), spec, campaign.Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(final.Report)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("fleet-run report differs from standalone:\n%s\n---\n%s", gotJSON, wantJSON)
	}

	// The job's span tree must be servable and include fleet spans.
	traceResp, err := http.Get(ts.URL + "/v1/jobs/" + sub.Jobs[0].ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer traceResp.Body.Close()
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", traceResp.StatusCode)
	}
	traceBody, err := io.ReadAll(traceResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(traceBody), "fleet.cell") {
		t.Error("job trace has no fleet.cell spans")
	}

	// Coordinator health carries the fleet section.
	var health map[string]json.RawMessage
	getJSON(t, ts.URL+"/healthz", &health)
	if _, ok := health["fleet"]; !ok {
		t.Error("coordinator /healthz missing fleet section")
	}

	// Standalone health must NOT grow a fleet section (byte-stability
	// for existing probes).
	_, plain := newTestServer(t, serverConfig{workers: 1})
	var plainHealth map[string]json.RawMessage
	getJSON(t, plain.URL+"/healthz", &plainHealth)
	if _, ok := plainHealth["fleet"]; ok {
		t.Error("standalone /healthz grew a fleet section")
	}
}

// TestUnknownRoleRejected: newServer fails closed on a bad role.
func TestUnknownRoleRejected(t *testing.T) {
	if _, err := newServer(serverConfig{workers: 1, role: "observer"}); err == nil {
		t.Fatal("unknown role accepted")
	}
}

func getJSON(t *testing.T, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
