package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pilotrf/internal/campaign"
	"pilotrf/internal/jobs"
	"pilotrf/internal/telemetry"
	"pilotrf/internal/trace"
)

var discardLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// fleetSpec is the shared test campaign: 8 cells across two workloads,
// two designs, two schemes.
func fleetSpec() campaign.Spec {
	return campaign.Spec{
		Benchmarks: []string{"sgemm", "nw"},
		Designs:    []string{"part-adaptive", "mrf-ntv"},
		Protect:    []string{"none", "parity"},
		Trials:     2,
		Seed:       42,
		SMs:        1,
	}
}

// standalone computes fleetSpec once per test binary — the reference
// report every fleet test compares against.
var (
	stdOnce sync.Once
	stdRep  campaign.Report
	stdErr  error
)

func standalone(t *testing.T) campaign.Report {
	t.Helper()
	stdOnce.Do(func() {
		pool, err := jobs.New(jobs.Config{Workers: 2})
		if err != nil {
			stdErr = err
			return
		}
		defer pool.Close()
		stdRep, stdErr = campaign.Run(context.Background(), fleetSpec(), campaign.Options{Pool: pool})
	})
	if stdErr != nil {
		t.Fatal(stdErr)
	}
	return stdRep
}

// newFleet stands up a coordinator over an httptest server with a
// directory cache, returning both plus the cache dir.
func newFleet(t *testing.T, cfg Config) (*Coordinator, *httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	cache, err := jobs.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = cache
	co := NewCoordinator(cfg)
	t.Cleanup(co.Close)
	mux := http.NewServeMux()
	co.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return co, ts, dir
}

// tableRunCell returns a runCell hook that answers instantly from the
// standalone report — chaos tests exercise the fabric, not the
// simulator.
func tableRunCell(t *testing.T) func(context.Context, Lease) (campaign.Cell, []trace.Span, error) {
	rep := standalone(t)
	return func(ctx context.Context, l Lease) (campaign.Cell, []trace.Span, error) {
		if l.Cell < 0 || l.Cell >= len(rep.Cells) {
			return campaign.Cell{}, nil, fmt.Errorf("cell %d out of range", l.Cell)
		}
		return rep.Cells[l.Cell], nil, nil
	}
}

// startWorker launches RunWorker in a goroutine, returning a stop
// function that cancels it and waits for exit.
func startWorker(t *testing.T, cfg WorkerConfig) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- RunWorker(ctx, cfg) }()
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker exited with %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("worker did not exit after cancel")
		}
	}
	t.Cleanup(stop)
	return stop
}

func reportBytes(t *testing.T, rep campaign.Report) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestFleetByteIdentical is the headline property: a 2-worker fleet
// running real simulations through the remote cache produces a report
// byte-identical to a standalone single-process run.
func TestFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	want := standalone(t)
	co, ts, _ := newFleet(t, Config{PollInterval: 20 * time.Millisecond})
	for i := 0; i < 2; i++ {
		startWorker(t, WorkerConfig{Coordinator: ts.URL, Parallel: 2})
	}
	rec := trace.NewRecorder(false)
	got, err := co.RunCampaign(context.Background(), fleetSpec(), RunOptions{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := reportBytes(t, got), reportBytes(t, want); !bytes.Equal(a, b) {
		t.Fatalf("fleet report differs from standalone:\n%s\n---\n%s", a, b)
	}
	if co.cCompleted.Value() == 0 {
		t.Fatal("no cells completed through the fleet")
	}
	// The trace must form a valid single-rooted tree including the
	// workers' imported subtrees.
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	if _, err := trace.BuildTree(spans); err != nil {
		t.Fatalf("fleet trace does not build: %v", err)
	}
}

// TestFleetWorkerTrailingSlash: a worker given the coordinator's URL
// with a trailing slash registers, pulls leases and uses the remote
// cache, and the report is the standalone one.
func TestFleetWorkerTrailingSlash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	want := standalone(t)
	co, ts, _ := newFleet(t, Config{PollInterval: 20 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	exited := make(chan error, 1)
	go func() {
		exited <- RunWorker(ctx, WorkerConfig{Coordinator: ts.URL + "/", Parallel: 2})
		cancel() // a worker that gives up ends the campaign too
	}()
	got, err := co.RunCampaign(ctx, fleetSpec(), RunOptions{})
	cancel()
	if werr := <-exited; werr != nil {
		t.Fatalf("worker exited with %v", werr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if a, b := reportBytes(t, got), reportBytes(t, want); !bytes.Equal(a, b) {
		t.Fatalf("fleet report differs from standalone:\n%s\n---\n%s", a, b)
	}
	if co.cCachePuts.Value() == 0 {
		t.Fatal("the worker wrote nothing to the remote cache")
	}
}

// TestLinkAnswers runs the link and the remote cache against a scripted
// coordinator: what each answer returns, how many requests it costs,
// and what the worker- and cache-side counters read after it.
func TestLinkAnswers(t *testing.T) {
	key := jobs.NewKey().Field("kind", "link-test").Sum()
	type payload struct {
		V int `json:"v"`
	}
	post := func(ctx context.Context, l Link, _ *telemetry.Registry) (string, error) {
		buf, code, err := l.Do(ctx, http.MethodPost, "/v1/fleet/lease", []byte("{}"))
		return fmt.Sprintf("HTTP %d %q", code, buf), err
	}
	load := func(_ context.Context, l Link, reg *telemetry.Registry) (string, error) {
		remote, err := newRemoteCache(l, reg, discardLog)
		if err != nil {
			return "", err
		}
		var v payload
		return fmt.Sprintf("hit %v", remote.Get(key, &v)), nil
	}
	store := func(_ context.Context, l Link, reg *telemetry.Registry) (string, error) {
		remote, err := newRemoteCache(l, reg, discardLog)
		if err != nil {
			return "", err
		}
		return "", remote.Put(key, payload{V: 1})
	}
	// get and open count the body bytes Do and Open hand back.
	get := func(ctx context.Context, l Link, _ *telemetry.Registry) (string, error) {
		buf, code, err := l.Do(ctx, http.MethodGet, "/v1/jobs/job-1/trace", nil)
		return fmt.Sprintf("HTTP %d, %d bytes", code, len(buf)), err
	}
	open := func(ctx context.Context, l Link, _ *telemetry.Registry) (string, error) {
		rc, code, err := l.Open(ctx, http.MethodGet, "/v1/jobs/job-1/trace", nil)
		if err != nil {
			return fmt.Sprintf("HTTP %d", code), err
		}
		defer rc.Close()
		n, err := io.Copy(io.Discard, rc)
		return fmt.Sprintf("HTTP %d, %d bytes", code, n), err
	}
	big := strings.Repeat("x", maxWireBytes+10)
	type answer struct {
		code int
		body string
	}
	cases := []struct {
		name     string
		answers  []answer // served in order; the last one repeats
		run      func(context.Context, Link, *telemetry.Registry) (string, error)
		want     string
		errHas   []string // nil wants no error
		errIs    error
		requests int // 0: more than one
		counters map[string]uint64
	}{
		{
			name:    "5xx twice then 2xx",
			answers: []answer{{503, "busy"}, {503, "busy"}, {200, "lease"}},
			run:     post, want: `HTTP 200 "lease"`, requests: 3,
			counters: map[string]uint64{"fleet_worker_retries": 2},
		},
		{
			name:    "429 then 2xx",
			answers: []answer{{429, "queue full"}, {202, "accepted"}},
			run:     post, want: `HTTP 202 "accepted"`, requests: 2,
			counters: map[string]uint64{"fleet_worker_retries": 1},
		},
		{
			name:    "Open streams a body past maxWireBytes",
			answers: []answer{{200, big}},
			run:     open, want: fmt.Sprintf("HTTP 200, %d bytes", len(big)), requests: 1,
		},
		{
			name:    "Do stops one byte past maxWireBytes",
			answers: []answer{{200, big}},
			run:     get, want: fmt.Sprintf("HTTP 200, %d bytes", maxWireBytes+1), requests: 1,
		},
		{
			name:    "4xx",
			answers: []answer{{400, "bad body: no schema\nsecond line"}},
			run:     post, want: `HTTP 400 ""`, requests: 1,
			errHas:   []string{"/v1/fleet/lease: HTTP 400: bad body: no schema"},
			counters: map[string]uint64{"fleet_worker_retries": 0},
		},
		{
			name:    "5xx forever",
			answers: []answer{{503, "busy"}},
			run:     post, want: `HTTP 503 ""`,
			errHas: []string{"retry budget 20ms exhausted", "/v1/fleet/lease: HTTP 503"},
		},
		{
			name:    "cancelled in the backoff",
			answers: []answer{{503, "busy"}},
			run: func(ctx context.Context, l Link, reg *telemetry.Registry) (string, error) {
				l.retry = Policy{Base: time.Minute, Budget: time.Minute} // the cancel lands in the first sleep
				ctx, cancel := context.WithCancel(ctx)
				time.AfterFunc(200*time.Millisecond, cancel)
				return post(ctx, l, reg)
			},
			want: `HTTP 503 ""`, errIs: context.Canceled, requests: 1,
			counters: map[string]uint64{"fleet_worker_retries": 0},
		},
		{
			name:    "cache load 404",
			answers: []answer{{404, "miss"}},
			run:     load, want: "hit false", requests: 1,
			counters: map[string]uint64{"fleet_cache_gets": 1, "fleet_cache_hits": 0, "fleet_cache_retries": 0},
		},
		{
			name:    "cache store 5xx forever",
			answers: []answer{{503, "busy"}},
			run:     store, want: "",
			counters: map[string]uint64{"fleet_cache_put_dropped": 1, "fleet_cache_puts": 0, "fleet_worker_retries": 0},
		},
		{
			name: "cache load of a corrupt envelope",
			answers: []answer{{200, `{"schema":"` + jobs.CacheSchema + `","key":"` + key.Hex() +
				`","preimage":"wrong","payload":{"v":1}}`}},
			run: load, want: "hit false", requests: 1,
			counters: map[string]uint64{"fleet_cache_corrupt": 1, "fleet_cache_hits": 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var requests atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n := int(requests.Add(1))
				a := tc.answers[min(n, len(tc.answers))-1]
				w.WriteHeader(a.code)
				io.WriteString(w, a.body)
			}))
			defer ts.Close()
			reg := telemetry.NewRegistry()
			l := Link{base: ts.URL, retry: Policy{Base: time.Millisecond, Budget: 20 * time.Millisecond},
				retries: reg.Counter("fleet_worker_retries")}
			got, err := tc.run(context.Background(), l, reg)
			if got != tc.want {
				t.Errorf("result %s, want %s", got, tc.want)
			}
			switch {
			case tc.errHas == nil && tc.errIs == nil && err != nil:
				t.Errorf("unexpected error %v", err)
			case tc.errIs != nil && !errors.Is(err, tc.errIs):
				t.Errorf("error %v is not %v", err, tc.errIs)
			}
			for _, s := range tc.errHas {
				if err == nil || !strings.Contains(err.Error(), s) {
					t.Errorf("error %v does not contain %q", err, s)
				}
			}
			if n := int(requests.Load()); tc.requests > 0 && n != tc.requests || tc.requests == 0 && n < 2 {
				t.Errorf("%d requests, want %d (0: more than one)", n, tc.requests)
			}
			for name, want := range tc.counters {
				if got := reg.Counter(name).Value(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		})
	}
}

// TestFleetLeaseExpiryRequeue kills a worker mid-campaign (registers,
// takes a lease, goes silent): the lease must expire, the cell re-queue
// to a live worker, and the report stay byte-identical. The dead
// worker's late submission must be rejected as stale. The expiry
// excludes the dead worker, the only one registered, from its cell;
// with no error the cell is not poison, so it waits for the live worker.
func TestFleetLeaseExpiryRequeue(t *testing.T) {
	want := standalone(t)
	co, ts, _ := newFleet(t, Config{
		LeaseTTL:     300 * time.Millisecond,
		PollInterval: 20 * time.Millisecond,
		ExcludeAfter: 1,
	})

	// The doomed worker: registered by hand so it can go silent.
	var reg RegisterResponse
	postJSON(t, ts.URL+"/v1/fleet/register", RegisterRequest{Schema: WireSchema, Fingerprint: fingerprint(), Capacity: 1}, &reg)

	type result struct {
		rep campaign.Report
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		rep, err := co.RunCampaign(context.Background(), fleetSpec(), RunOptions{})
		resCh <- result{rep, err}
	}()

	// Grab one lease and never heartbeat it.
	var doomed Lease
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := rawPost(t, ts.URL+"/v1/fleet/lease", LeaseRequest{Schema: WireSchema, WorkerID: reg.WorkerID})
		if resp.StatusCode == http.StatusOK {
			l, err := ReadLease(bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			doomed = l
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("doomed worker never got a lease")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Once the lease has expired, the live worker joins and finishes
	// everything, the doomed cell included.
	for co.cLeasesExpired.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the doomed lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	startWorker(t, WorkerConfig{Coordinator: ts.URL, runCell: tableRunCell(t), Parallel: 1})

	var res result
	select {
	case res = <-resCh:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign did not finish after worker death")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	if a, b := reportBytes(t, res.rep), reportBytes(t, want); !bytes.Equal(a, b) {
		t.Fatalf("post-death report differs from standalone:\n%s\n---\n%s", a, b)
	}
	if co.cLeasesExpired.Value() == 0 {
		t.Fatal("no lease expired")
	}
	if co.cRequeued.Value() == 0 {
		t.Fatal("no cell re-queued")
	}

	// The doomed worker rises and submits its stale result: 410.
	cell := want.Cells[doomed.Cell]
	resp, _ := rawPost(t, ts.URL+"/v1/fleet/result", Result{
		Schema: WireSchema, WorkerID: reg.WorkerID, LeaseID: doomed.ID,
		Campaign: doomed.Campaign, Cell: doomed.Cell, CellResult: &cell,
	})
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("stale result got HTTP %d, want 410", resp.StatusCode)
	}
	if co.cRejects.Value() == 0 {
		t.Fatal("stale result not counted as reject")
	}
}

// TestFleetCoordinatorResume: a coordinator restarted over a cache
// holding half the campaign replays those cells and dispatches only the
// gap.
func TestFleetCoordinatorResume(t *testing.T) {
	want := standalone(t)
	pl, err := campaign.NewPlan(fleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	co, ts, dir := newFleet(t, Config{PollInterval: 20 * time.Millisecond})
	// Simulate the first coordinator's life: half the cells persisted.
	cache, err := jobs.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	pre := pl.NumCells() / 2
	for i := 0; i < pre; i++ {
		if err := cache.Put(pl.CellKey(i), want.Cells[i]); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	leased := map[int]bool{}
	table := tableRunCell(t)
	startWorker(t, WorkerConfig{Coordinator: ts.URL, Parallel: 1,
		runCell: func(ctx context.Context, l Lease) (campaign.Cell, []trace.Span, error) {
			mu.Lock()
			leased[l.Cell] = true
			mu.Unlock()
			return table(ctx, l)
		}})
	got, err := co.RunCampaign(context.Background(), fleetSpec(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := reportBytes(t, got), reportBytes(t, want); !bytes.Equal(a, b) {
		t.Fatalf("resumed report differs from standalone:\n%s\n---\n%s", a, b)
	}
	if got := int(co.cResumed.Value()); got != pre {
		t.Fatalf("resumed %d cells, want %d", got, pre)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < pre; i++ {
		if leased[i] {
			t.Errorf("cell %d was dispatched despite being resumable", i)
		}
	}
	for i := pre; i < pl.NumCells(); i++ {
		if !leased[i] {
			t.Errorf("gap cell %d was never dispatched", i)
		}
	}
}

// TestFleetFlakyWorkerExcluded: a worker that keeps failing one cell is
// excluded from that cell (not the campaign); a healthy worker finishes
// it and the campaign succeeds. The flaky worker takes cell 0 twice
// before the healthy one starts, and the healthy one is live before the
// second failure, so that failure excludes without poisoning.
func TestFleetFlakyWorkerExcluded(t *testing.T) {
	want := standalone(t)
	co, ts, _ := newFleet(t, Config{
		PollInterval: 20 * time.Millisecond,
		ExcludeAfter: 2,
		PoisonAfter:  2,
	})
	table := tableRunCell(t)
	var tries atomic.Int32
	second := make(chan struct{})
	// Flaky worker: always errors on cell 0, fine elsewhere.
	startWorker(t, WorkerConfig{Coordinator: ts.URL, Parallel: 1,
		runCell: func(ctx context.Context, l Lease) (campaign.Cell, []trace.Span, error) {
			if l.Cell != 0 {
				return table(ctx, l)
			}
			if tries.Add(1) == 2 {
				close(second)
				for co.Health().WorkersLive < 2 && ctx.Err() == nil {
					time.Sleep(5 * time.Millisecond)
				}
			}
			return campaign.Cell{}, nil, fmt.Errorf("flaky: transient host fault")
		}})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var got campaign.Report
	errc := make(chan error, 1)
	go func() {
		var err error
		got, err = co.RunCampaign(ctx, fleetSpec(), RunOptions{})
		errc <- err
	}()
	select {
	case <-second:
	case err := <-errc:
		t.Fatalf("campaign ended before the second try on cell 0: %v", err)
	}
	startWorker(t, WorkerConfig{Coordinator: ts.URL, Parallel: 1, runCell: table})
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if a, b := reportBytes(t, got), reportBytes(t, want); !bytes.Equal(a, b) {
		t.Fatalf("report differs from standalone after flaky worker:\n%s\n---\n%s", a, b)
	}
	if n := tries.Load(); n != 2 {
		t.Fatalf("flaky worker took cell 0 %d times, want 2 (excluded after ExcludeAfter)", n)
	}
	if n := co.cPoisoned.Value(); n != 0 {
		t.Fatalf("%d cells poisoned, want 0", n)
	}
}

// TestFleetPoisonCell: when distinct workers all fail the same cell,
// the campaign fails with the cell's error instead of looping forever.
func TestFleetPoisonCell(t *testing.T) {
	standalone(t)
	co, ts, _ := newFleet(t, Config{
		PollInterval: 20 * time.Millisecond,
		ExcludeAfter: 1, // first failure excludes, forcing worker diversity
		PoisonAfter:  2,
	})
	table := tableRunCell(t)
	poisoned := func(ctx context.Context, l Lease) (campaign.Cell, []trace.Span, error) {
		if l.Cell == 3 {
			return campaign.Cell{}, nil, fmt.Errorf("simulator assertion: bank conflict invariant violated")
		}
		return table(ctx, l)
	}
	startWorker(t, WorkerConfig{Coordinator: ts.URL, Parallel: 1, runCell: poisoned})
	startWorker(t, WorkerConfig{Coordinator: ts.URL, Parallel: 1, runCell: poisoned})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := co.RunCampaign(ctx, fleetSpec(), RunOptions{})
	if err == nil {
		t.Fatal("poisoned campaign succeeded")
	}
	if !strings.Contains(err.Error(), "poison") || !strings.Contains(err.Error(), "bank conflict") {
		t.Fatalf("error does not identify the poison cell: %v", err)
	}
	if co.cPoisoned.Value() == 0 {
		t.Fatal("poisoned counter not incremented")
	}
}

// TestFleetPoisonCellOneWorker: a lone worker that fails a cell is
// excluded from it after ExcludeAfter tries; with no live worker left
// to take the cell, the campaign fails with the cell's error instead of
// waiting for a worker that never comes.
func TestFleetPoisonCellOneWorker(t *testing.T) {
	standalone(t)
	co, ts, _ := newFleet(t, Config{PollInterval: 20 * time.Millisecond})
	table := tableRunCell(t)
	var tries atomic.Int32
	startWorker(t, WorkerConfig{Coordinator: ts.URL, Parallel: 1,
		runCell: func(ctx context.Context, l Lease) (campaign.Cell, []trace.Span, error) {
			if l.Cell == 3 {
				tries.Add(1)
				return campaign.Cell{}, nil, fmt.Errorf("simulator assertion: bank conflict invariant violated")
			}
			return table(ctx, l)
		}})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := co.RunCampaign(ctx, fleetSpec(), RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "poison") || !strings.Contains(err.Error(), "bank conflict") {
		t.Fatalf("error = %v, want the poison cell's error", err)
	}
	if n := tries.Load(); n != 2 {
		t.Fatalf("worker took the poison cell %d times, want ExcludeAfter = 2", n)
	}
	if n := co.cPoisoned.Value(); n != 1 {
		t.Fatalf("%d cells poisoned, want 1", n)
	}
}

// TestFleetRemoteCacheIntegrity: the remote cache round-trip
// re-verifies envelope integrity — a corrupted coordinator-side file is
// a miss for workers, and a corrupt PUT is rejected. A Cache serves an
// entry it has validated from memory, so the corrupted file is read
// through a fresh remote cache, as a restarted worker would.
func TestFleetRemoteCacheIntegrity(t *testing.T) {
	_, ts, dir := newFleet(t, Config{})
	newRemote := func() *jobs.Cache {
		t.Helper()
		remote, err := newRemoteCache(Link{base: ts.URL, retry: Policy{Base: time.Millisecond, Budget: 50 * time.Millisecond}},
			telemetry.NewRegistry(), discardLog)
		if err != nil {
			t.Fatal(err)
		}
		return remote
	}
	remote := newRemote()
	key := jobs.NewKey().Field("kind", "fleet-test").Uint("n", 7).Sum()
	type payload struct {
		V int `json:"v"`
	}
	if err := remote.Put(key, payload{V: 41}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if !remote.Get(key, &got) || got.V != 41 {
		t.Fatalf("remote round-trip failed: %+v", got)
	}

	// Corrupt the coordinator-side file: truncated envelope.
	path := filepath.Join(dir, key.Hex()+".json")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var after payload
	if newRemote().Get(key, &after) {
		t.Fatal("corrupt remote entry served as a hit")
	}

	// A corrupt PUT (payload swapped under the same key) is rejected.
	bad := []byte(`{"schema":"pilotrf-jobcache/v1","key":"` + key.Hex() + `","preimage":"wrong","payload":{"v":1}}`)
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/fleet/cache/"+key.Hex(), bytes.NewReader(bad))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt PUT got HTTP %d, want 400", resp.StatusCode)
	}
}

// TestFleetHealthSnapshot: Health reflects registered workers and
// campaign state.
func TestFleetHealthSnapshot(t *testing.T) {
	co, ts, _ := newFleet(t, Config{PollInterval: 20 * time.Millisecond})
	var reg RegisterResponse
	postJSON(t, ts.URL+"/v1/fleet/register", RegisterRequest{Schema: WireSchema, Fingerprint: fingerprint(), Capacity: 4}, &reg)
	h := co.Health()
	if h.WorkersLive != 1 || h.WorkersLost != 0 {
		t.Fatalf("health = %+v, want 1 live worker", h)
	}
}

// rawPost posts msg as JSON and returns the response and its body.
func rawPost(t *testing.T, url string, msg interface{}) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// postJSON posts msg and decodes the 200 response into out.
func postJSON(t *testing.T, url string, msg, out interface{}) {
	t.Helper()
	resp, body := rawPost(t, url, msg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLeaseRoundTrip times the fleet fabric without the simulator:
// one iteration is a 17-cell campaign (every workload, one design, one
// scheme, one trial) on a coordinator over httptest, served by one
// worker whose runCell answers each lease at once with an all-masked
// cell. Each cell costs a lease, a result and the coordinator's merge;
// the benchmark reports ns per cell and fails on a short report.
func BenchmarkLeaseRoundTrip(b *testing.B) {
	co := NewCoordinator(Config{PollInterval: time.Millisecond})
	defer co.Close()
	mux := http.NewServeMux()
	co.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	exited := make(chan error, 1)
	go func() {
		exited <- RunWorker(ctx, WorkerConfig{Coordinator: ts.URL, Parallel: 1,
			runCell: func(_ context.Context, l Lease) (campaign.Cell, []trace.Span, error) {
				return campaign.Cell{Design: l.Design, Protection: l.Protect, Workload: l.Workload,
					Outcomes: campaign.Outcomes{Masked: l.Spec.Trials}}, nil, nil
			}})
	}()
	defer func() {
		cancel()
		if err := <-exited; err != nil {
			b.Error(err)
		}
	}()
	spec := campaign.Spec{Designs: []string{"part-adaptive"}, Protect: []string{"none"}, Trials: 1}
	run := func() {
		rep, err := co.RunCampaign(context.Background(), spec, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Cells) != 17 {
			b.Fatalf("report has %d cells, want 17", len(rep.Cells))
		}
	}
	run() // the worker registers during the first, untimed run
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(17*b.N), "ns/cell")
}
