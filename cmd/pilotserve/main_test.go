package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pilotrf/internal/campaign"
	"pilotrf/internal/jobs"
	"pilotrf/internal/telemetry"
	"pilotrf/internal/trace"
)

// testSpecJSON is a one-cell, one-trial campaign: cheap, but it still
// exercises the golden run and a trial (2 admission units).
const testSpecJSON = `{"benchmarks":["sgemm"],"designs":["part-adaptive"],"protect":["none"],"trials":1,"scale":0.05,"sms":1,"seed":7}`

func newTestServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// streamJob reads the job's NDJSON stream to its terminal line,
// asserting monotonic progress along the way.
func streamJob(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var last jobStatus
	lastDone := -1
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var st jobStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if st.Done < lastDone {
			t.Errorf("progress went backwards: %d after %d", st.Done, lastDone)
		}
		lastDone = st.Done
		last = st
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.State != "done" && last.State != "failed" {
		t.Fatalf("stream ended in state %q", last.State)
	}
	return last
}

// TestSubmitAndStream drives the happy path end to end: a two-job batch
// is accepted with deterministic ids, both streams end in "done", and
// each report is byte-identical to running the same spec directly
// through the campaign engine.
func TestSubmitAndStream(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 2})
	resp := submit(t, ts, `{"jobs":[`+testSpecJSON+`,`+testSpecJSON+`]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if len(sub.Jobs) != 2 || sub.Jobs[0].ID != "job-1" || sub.Jobs[1].ID != "job-2" {
		t.Fatalf("submit response %+v", sub)
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
	wantJSON, _ := json.Marshal(want)

	for _, j := range sub.Jobs {
		final := streamJob(t, ts, j.ID)
		if final.State != "done" {
			t.Fatalf("%s failed: %s", j.ID, final.Error)
		}
		if final.Done != final.Total || final.Total != j.Units {
			t.Errorf("%s finished at %d/%d, submit priced %d units", j.ID, final.Done, final.Total, j.Units)
		}
		gotJSON, _ := json.Marshal(final.Report)
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s report differs from direct campaign.Run:\n--- got\n%s\n--- want\n%s", j.ID, gotJSON, wantJSON)
		}
	}
}

// TestHealthAndMetrics: /healthz answers ok, and the serving counters
// show up on the telemetry mux's /metrics page.
func TestHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 1, reg: telemetry.NewRegistry()})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	sub := submit(t, ts, `{"jobs":[`+testSpecJSON+`]}`)
	var sr submitResponse
	if err := json.NewDecoder(sub.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	sub.Body.Close()
	streamJob(t, ts, sr.Jobs[0].ID)

	mresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["serve_jobs_accepted"] < 1 || m["serve_jobs_completed"] < 1 {
		t.Errorf("metrics missing serve counters: %v", m)
	}
	if m["jobs_submitted"] == 0 {
		t.Errorf("pool metrics absent from the shared registry: %v", m)
	}
}

// holdPool occupies every worker of s's pool until release is called or
// the test ends, so the jobs admitted meanwhile stay in flight.
func holdPool(t *testing.T, s *server) (release func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	hold := make([]jobs.Task, s.cfg.workers)
	for i := range hold {
		hold[i] = func(context.Context) (interface{}, error) { <-ctx.Done(); return nil, nil }
	}
	if _, err := s.pool.Submit(context.Background(), hold); err != nil {
		t.Fatal(err)
	}
	return cancel
}

// TestQueueBackpressure: a batch priced above queue-units can never be
// admitted and gets 413 at once, without Retry-After; a batch that fits
// only once the work in flight finishes gets 429 + Retry-After. Neither
// rejection admits anything.
func TestQueueBackpressure(t *testing.T) {
	// Each test job prices 2 units; capacity 3 holds one of them.
	s, ts := newTestServer(t, serverConfig{workers: 1, queueUnits: 3})
	big := submit(t, ts, `{"jobs":[`+testSpecJSON+`,`+testSpecJSON+`]}`)
	big.Body.Close()
	if big.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch above capacity: status %d, want 413", big.StatusCode)
	}
	if ra := big.Header.Get("Retry-After"); ra != "" {
		t.Errorf("413 carries Retry-After %q", ra)
	}

	release := holdPool(t, s)
	ok := submit(t, ts, `{"jobs":[`+testSpecJSON+`]}`)
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusAccepted {
		t.Fatalf("fitting batch status %d, want 202", ok.StatusCode)
	}
	var sr submitResponse
	if err := json.NewDecoder(ok.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	full := submit(t, ts, `{"jobs":[`+testSpecJSON+`]}`)
	full.Body.Close()
	if full.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch behind a job in flight: status %d, want 429", full.StatusCode)
	}
	if full.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	release()
	streamJob(t, ts, sr.Jobs[0].ID)
}

// TestPerClientLimit: a batch with more jobs than the per-client limit
// can never be admitted and gets 413 at once, without Retry-After; a
// batch that fits the limit but waits behind the client's job in
// flight gets 429 + Retry-After; a different client is unaffected.
// Both rejections count in serve_rejected_client_limit.
func TestPerClientLimit(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, serverConfig{workers: 1, perClient: 1, reg: reg})
	post := func(client, body string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	big := post("alice", `{"jobs":[`+testSpecJSON+`,`+testSpecJSON+`]}`)
	big.Body.Close()
	if big.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch above the limit: status %d, want 413", big.StatusCode)
	}
	if ra := big.Header.Get("Retry-After"); ra != "" {
		t.Errorf("413 carries Retry-After %q", ra)
	}

	release := holdPool(t, s)
	first := post("alice", `{"jobs":[`+testSpecJSON+`]}`)
	defer first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("fitting batch status %d, want 202", first.StatusCode)
	}
	var sr submitResponse
	if err := json.NewDecoder(first.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	behind := post("alice", `{"jobs":[`+testSpecJSON+`]}`)
	behind.Body.Close()
	if behind.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch behind a job in flight: status %d, want 429", behind.StatusCode)
	}
	if behind.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	other := post("other-client", `{"jobs":[`+testSpecJSON+`]}`)
	defer other.Body.Close()
	if other.StatusCode != http.StatusAccepted {
		t.Fatalf("other client status %d, want 202", other.StatusCode)
	}
	var so submitResponse
	if err := json.NewDecoder(other.Body).Decode(&so); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("serve_rejected_client_limit").Value(); got != 2 {
		t.Errorf("serve_rejected_client_limit = %d, want 2", got)
	}
	release()
	streamJob(t, ts, sr.Jobs[0].ID)
	streamJob(t, ts, so.Jobs[0].ID)
}

// TestBadRequests: invalid specs, empty batches, unknown ids, and wrong
// methods produce the right statuses.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 1})
	cases := []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/v1/jobs", `{"jobs":[{"designs":["warp9"]}]}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/jobs", `{"jobs":[]}`, http.StatusBadRequest},
		{http.MethodPost, "/v1/jobs", `{not json`, http.StatusBadRequest},
		{http.MethodGet, "/v1/jobs", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/jobs/job-999", "", http.StatusNotFound},
		{http.MethodPost, "/v1/jobs/job-1", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestOversizedSpecRejected: specs past campaign's caps get a 400 at
// admission. The first body's 2^62 trials once wrapped its price to one
// job, so the server admitted it and its job goroutine panicked; the
// server must go on serving.
func TestOversizedSpecRejected(t *testing.T) {
	_, ts := newTestServer(t, serverConfig{workers: 1})
	for _, body := range []string{
		`{"jobs":[{"benchmarks":["sgemm"],"designs":["part"],"trials":4611686018427387904,"scale":0.02,"sms":1}]}`,
		`{"jobs":[{"benchmarks":["sgemm"],"designs":["part"],"sms":1000000000}]}`,
		`{"jobs":[{"benchmarks":["sgemm"],"designs":["part"],"scale":1e9}]}`,
	} {
		resp := submit(t, ts, body)
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, resp.StatusCode, msg)
		}
	}
	resp := submit(t, ts, `{"jobs":[`+testSpecJSON+`]}`)
	var sub submitResponse
	err := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid spec after the rejections: status %d, %v", resp.StatusCode, err)
	}
	if final := streamJob(t, ts, sub.Jobs[0].ID); final.State != "done" {
		t.Fatalf("valid spec after the rejections ended %+v", final)
	}
}

// TestDrainStopsAdmission: after beginDrain, submissions get 503 and
// /healthz reports unhealthy, but already-running jobs still finish and
// stream.
func TestDrainStopsAdmission(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1})
	sub := submit(t, ts, `{"jobs":[`+testSpecJSON+`]}`)
	var sr submitResponse
	if err := json.NewDecoder(sub.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	sub.Body.Close()

	s.beginDrain()
	rej := submit(t, ts, `{"jobs":[`+testSpecJSON+`]}`)
	rej.Body.Close()
	if rej.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", rej.StatusCode)
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", health.StatusCode)
	}

	final := streamJob(t, ts, sr.Jobs[0].ID)
	if final.State != "done" {
		t.Fatalf("in-flight job did not finish during drain: %+v", final)
	}
	s.waitIdle()
}

// TestCacheSharedAcrossJobs: with a cache directory, a repeated spec's
// second job runs zero new simulations — the first job's golden run and
// cells serve it.
func TestCacheSharedAcrossJobs(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, ts := newTestServer(t, serverConfig{workers: 1, cacheDir: t.TempDir() + "/cache", reg: reg})
	for i := 0; i < 2; i++ {
		resp := submit(t, ts, `{"jobs":[`+testSpecJSON+`]}`)
		var sr submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if final := streamJob(t, ts, sr.Jobs[0].ID); final.State != "done" {
			t.Fatalf("job %d failed: %s", i, final.Error)
		}
	}
	if st := s.cache.Stats(); st.Hits == 0 {
		t.Errorf("second job hit the cache 0 times: %+v", st)
	}
	if n := reg.Map()["jobs_submitted"]; n != 2 {
		t.Errorf("pool ran %v simulations, want 2 (golden + trial, once)", n)
	}
}

// TestFinishedJobsRetainedUpToCapacity: finished jobs stay served only
// while their units add up to -queue-units. Jobs worth several times the
// capacity run one after another; after each, the finished jobs still
// held sum to at most the capacity, exactly the newest of them still
// stream and serve their trace, the older ones answer 404 on both
// endpoints, and a queued and a running job are never evicted.
func TestFinishedJobsRetainedUpToCapacity(t *testing.T) {
	const capacity = 8
	s, ts := newTestServer(t, serverConfig{workers: 1, queueUnits: capacity, cacheDir: t.TempDir() + "/cache"})

	// White-box: plant a queued and a running job, as admission leaves
	// them before runJob ends them.
	var pending []string
	for _, state := range []string{"queued", "running"} {
		id := "job-test-" + state
		rec := trace.NewRecorder(true)
		s.mu.Lock()
		s.jobsByID[id] = &serveJob{
			id: id, units: capacity, state: state, changed: make(chan struct{}),
			rec: rec, root: rec.Root("job", trace.TraceID("t"), id),
		}
		s.mu.Unlock()
		pending = append(pending, id)
	}

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// testSpecJSON prices 2 units; with two trials the spec prices 3.
	specs := []string{testSpecJSON, strings.Replace(testSpecJSON, `"trials":1`, `"trials":2`, 1)}
	var ids []string
	var units []int
	for i := 0; i < 12; i++ {
		resp := submit(t, ts, `{"jobs":[`+specs[i%2]+`]}`)
		var sr submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := sr.Jobs[0].ID
		ids = append(ids, id)
		units = append(units, sr.Jobs[0].Units)
		if final := streamJob(t, ts, id); final.State != "done" || final.Report == nil {
			t.Fatalf("%s ended %+v", id, final)
		}
		if code := status("/v1/jobs/" + id + "/trace"); code != http.StatusOK {
			t.Fatalf("%s/trace: status %d right after its terminal line", id, code)
		}
		s.waitIdle() // runJob has retired the job

		s.mu.Lock()
		var held int
		for _, j := range s.jobsByID {
			if st, _ := j.snapshot(); st.State == "done" || st.State == "failed" {
				held += j.units
			}
		}
		s.mu.Unlock()
		if held > capacity {
			t.Fatalf("after %s: finished jobs hold %d units, capacity %d", id, held, capacity)
		}
		// The newest jobs whose units fit the capacity stay; the rest go.
		kept := len(ids)
		for sum := 0; kept > 0 && sum+units[kept-1] <= capacity; kept-- {
			sum += units[kept-1]
		}
		for k, old := range ids {
			want := http.StatusOK
			if k < kept {
				want = http.StatusNotFound
			}
			if code := status("/v1/jobs/" + old); code != want {
				t.Errorf("after %s: GET %s status %d, want %d", id, old, code, want)
			}
			if code := status("/v1/jobs/" + old + "/trace"); code != want {
				t.Errorf("after %s: GET %s/trace status %d, want %d", id, old, code, want)
			}
		}
		for _, p := range pending {
			if code := status("/v1/jobs/" + p + "/trace"); code != http.StatusConflict {
				t.Errorf("after %s: %s/trace status %d, want 409", id, p, code)
			}
		}
	}
	if units[0] != 2 || units[1] != 3 {
		t.Fatalf("spec prices %v, want 2 and 3 units", units[:2])
	}
	if final := streamJob(t, ts, ids[len(ids)-1]); final.State != "done" || final.Report == nil {
		t.Fatalf("newest job %s streams %+v", ids[len(ids)-1], final)
	}
}

// TestRequestIDTracing: a caller-supplied X-Request-ID is echoed on the
// response and stamped on every NDJSON line of the jobs it admitted; a
// request without one gets a generated req-N id; and the structured log
// carries the id on request, admission, and job lifecycle records.
func TestRequestIDTracing(t *testing.T) {
	var logBuf syncBuffer
	_, ts := newTestServer(t, serverConfig{
		workers: 1,
		log:     slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(`{"jobs":[`+testSpecJSON+`]}`))
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("submit echoed X-Request-ID %q, want trace-me-42", got)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Every NDJSON progress line carries the submitting request's id.
	stream, err := http.Get(ts.URL + "/v1/jobs/" + sr.Jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if got := stream.Header.Get("X-Request-ID"); got == "" || strings.Contains(got, "trace-me") {
		t.Errorf("stream request got X-Request-ID %q, want a fresh generated id", got)
	}
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lines := 0
	for sc.Scan() {
		var st jobStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.RequestID != "trace-me-42" {
			t.Fatalf("NDJSON line %d carries request_id %q, want trace-me-42", lines, st.RequestID)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no NDJSON lines")
	}

	// A request without the header gets a generated id.
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if got := health.Header.Get("X-Request-ID"); !strings.HasPrefix(got, "req-") {
		t.Errorf("generated id %q, want req-N", got)
	}

	// The structured log mentions the id on request, admission, and job
	// lifecycle records.
	logs := logBuf.String()
	for _, want := range []string{`"msg":"request"`, `"msg":"batch accepted"`, `"msg":"job running"`, `"msg":"job done"`} {
		if !strings.Contains(logs, want) {
			t.Errorf("log missing %s:\n%s", want, logs)
		}
	}
	if got := strings.Count(logs, `"request_id":"trace-me-42"`); got < 3 {
		t.Errorf("request id appears %d times in the log, want >= 3:\n%s", got, logs)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// written from request and job goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestHealthzJSON: /healthz reports status, uptime, Go version, and the
// build stamp; draining flips status and the code to 503.
func TestHealthzJSON(t *testing.T) {
	s, ts := newTestServer(t, serverConfig{workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q, want ok", h.Status)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("negative uptime %v", h.UptimeSeconds)
	}
	if h.GoVersion != runtime.Version() {
		t.Errorf("go_version %q, want %q", h.GoVersion, runtime.Version())
	}
	if h.Version == "" {
		t.Error("empty version stamp")
	}

	s.beginDrain()
	dresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", dresp.StatusCode)
	}
	var dh healthResponse
	if err := json.NewDecoder(dresp.Body).Decode(&dh); err != nil {
		t.Fatal(err)
	}
	if dh.Status != "draining" {
		t.Errorf("draining status %q", dh.Status)
	}
}

// TestMetricsPrometheus: after a served job, /metrics renders valid
// Prometheus exposition with the endpoint latency histograms, the
// queue-wait histogram, and the serving counters.
func TestMetricsPrometheus(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, serverConfig{workers: 1, reg: reg, cacheDir: t.TempDir()})
	resp := submit(t, ts, `{"jobs":[`+testSpecJSON+`]}`)
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	streamJob(t, ts, sr.Jobs[0].ID)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want Prometheus text exposition", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE serve_http_submit_seconds histogram",
		`serve_http_submit_seconds_bucket{le="+Inf"}`,
		"serve_http_submit_seconds_count",
		"# TYPE serve_http_job_seconds histogram",
		"# TYPE serve_queue_wait_seconds histogram",
		"serve_queue_wait_seconds_count 1",
		"# TYPE serve_jobs_completed counter",
		"serve_jobs_completed 1",
		// Pool and cache internals surface alongside the serving
		// series: submissions/panics from the worker pool, hit/miss
		// accounting from the content-addressed result cache.
		"# TYPE jobs_submitted counter",
		"# TYPE jobs_panics counter",
		"# TYPE cache_hits counter",
		"# TYPE cache_misses counter",
		"# TYPE cache_corrupt counter",
		"# TYPE cache_puts counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Queue-wait observes once per job; the submit histogram once per
	// POST.
	if h := reg.Histogram("serve_http_submit_seconds", telemetry.DefBuckets); h.Count() != 1 {
		t.Errorf("submit histogram count %d, want 1", h.Count())
	}
}
