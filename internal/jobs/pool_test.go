package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pilotrf/internal/telemetry"
)

// TestZeroWorkerConfigRejected: a pool cannot run with zero or negative
// workers, and the error says how to ask for one-per-core.
func TestZeroWorkerConfigRejected(t *testing.T) {
	for _, n := range []int{0, -1, -8} {
		if _, err := New(Config{Workers: n}); err == nil {
			t.Errorf("New(Workers=%d) succeeded, want error", n)
		}
	}
}

// TestOrderedMerge: results arrive indexed by submission order even when
// completion order is scrambled.
func TestOrderedMerge(t *testing.T) {
	p, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 64
	out, err := Map(context.Background(), p, n, func(ctx context.Context, i int) (interface{}, error) {
		// Earlier tasks sleep longer, so completion order inverts
		// submission order if the scheduler lets it.
		time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v.(int) != i*i {
			t.Fatalf("slot %d holds %v, want %d", i, v, i*i)
		}
	}
}

// TestPanicIsolation: one panicking task surfaces as a *PanicError in
// its own slot; every other task completes; the pool survives for the
// next batch.
func TestPanicIsolation(t *testing.T) {
	p, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tasks := make([]Task, 8)
	for i := range tasks {
		i := i
		tasks[i] = func(ctx context.Context) (interface{}, error) {
			if i == 3 {
				panic("boom in cell 3")
			}
			return i, nil
		}
	}
	b, err := p.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	results, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if i == 3 {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("slot 3: err %v, want *PanicError", r.Err)
			}
			if pe.Value != "boom in cell 3" || len(pe.Stack) == 0 {
				t.Fatalf("panic payload not preserved: %v", pe.Value)
			}
			continue
		}
		if r.Err != nil || r.Value.(int) != i {
			t.Fatalf("slot %d: (%v, %v), want (%d, nil)", i, r.Value, r.Err, i)
		}
	}
	// The pool still works after hosting a panic.
	out, err := Map(context.Background(), p, 4, func(ctx context.Context, i int) (interface{}, error) {
		return i + 100, nil
	})
	if err != nil || out[3].(int) != 103 {
		t.Fatalf("pool broken after panic: %v %v", out, err)
	}
}

// TestCancellationMidBatch: cancelling the batch context stops unstarted
// tasks (they finish with ctx.Err()) and the batch still drains fully.
func TestCancellationMidBatch(t *testing.T) {
	// A single worker runs the FIFO in submission order, so task 0 is
	// in flight when we cancel.
	p, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	tasks := make([]Task, 16)
	tasks[0] = func(ctx context.Context) (interface{}, error) {
		close(started)
		<-release
		return "first", nil
	}
	for i := 1; i < len(tasks); i++ {
		tasks[i] = func(ctx context.Context) (interface{}, error) { return "ran", nil }
	}
	b, err := p.Submit(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	cancel()
	close(release)
	results, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Value != "first" {
		t.Fatalf("in-flight task result %+v, want completed value", results[0])
	}
	cancelled := 0
	for _, r := range results[1:] {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled != len(tasks)-1 {
		t.Fatalf("%d of %d pending tasks cancelled, want all", cancelled, len(tasks)-1)
	}
	select {
	case <-b.Done():
	default:
		t.Fatal("batch did not drain")
	}
}

// TestErrorPropagatesDeterministically: Map returns the lowest-index
// error however the workers interleave.
func TestErrorPropagatesDeterministically(t *testing.T) {
	p, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for trial := 0; trial < 5; trial++ {
		_, err := Map(context.Background(), p, 32, func(ctx context.Context, i int) (interface{}, error) {
			if i%7 == 5 { // tasks 5, 12, 19, 26 fail
				return nil, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "jobs: task 5: cell 5 failed" {
			t.Fatalf("trial %d: error %v, want the lowest-index failure", trial, err)
		}
	}
}

// TestClosedPoolRejectsWork: submissions after Close fail with ErrClosed
// and Close drains queued work first.
func TestClosedPoolRejectsWork(t *testing.T) {
	p, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	b, err := p.Submit(context.Background(), []Task{
		func(ctx context.Context) (interface{}, error) { ran.Add(1); return nil, nil },
		func(ctx context.Context) (interface{}, error) { ran.Add(1); return nil, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if ran.Load() != 2 {
		t.Fatalf("queued work dropped at close: ran %d of 2", ran.Load())
	}
	if _, err := p.Submit(context.Background(), []Task{func(ctx context.Context) (interface{}, error) { return nil, nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

// TestPoolMetrics: a configured registry sees submission/completion
// counters move and the queue gauges return to zero at rest.
func TestPoolMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	p, err := New(Config{Workers: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := Map(context.Background(), p, 20, func(ctx context.Context, i int) (interface{}, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	m := reg.Map()
	if m["jobs_submitted"] != 20 || m["jobs_completed"] != 20 {
		t.Fatalf("submitted/completed = %v/%v, want 20/20", m["jobs_submitted"], m["jobs_completed"])
	}
	if m["jobs_queued"] != 0 || m["jobs_running"] != 0 {
		t.Fatalf("gauges at rest = queued %v running %v, want 0/0", m["jobs_queued"], m["jobs_running"])
	}
}

// TestWedgedWorkerDoesNotStrandQueue: with one worker wedged on a long
// task, the other worker drains the rest of the batch instead of idling
// — the batch's fast tasks all finish while the long task still runs.
func TestWedgedWorkerDoesNotStrandQueue(t *testing.T) {
	p, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	release := make(chan struct{})
	tasks := make([]Task, 32)
	tasks[0] = func(ctx context.Context) (interface{}, error) {
		<-release
		return nil, nil
	}
	var fast atomic.Int64
	for i := 1; i < len(tasks); i++ {
		tasks[i] = func(ctx context.Context) (interface{}, error) {
			fast.Add(1)
			return nil, nil
		}
	}
	b, err := p.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for fast.Load() < int64(len(tasks)-1) {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d fast tasks ran while one worker was wedged", fast.Load(), len(tasks)-1)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	if _, err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBatchesStayOrdered: batches submitted from several
// goroutines at once share the queue, and each still gets its own
// results in its own index order.
func TestConcurrentBatchesStayOrdered(t *testing.T) {
	p, err := New(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const submitters, n = 4, 200
	errs := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		g := g
		go func() {
			out, err := Map(context.Background(), p, n, func(ctx context.Context, i int) (interface{}, error) {
				return g*n + i, nil
			})
			if err == nil {
				for i, v := range out {
					if v.(int) != g*n+i {
						err = fmt.Errorf("submitter %d slot %d holds %v", g, i, v)
						break
					}
				}
			}
			errs <- err
		}()
	}
	for g := 0; g < submitters; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestMapLargeBatch: a batch far larger than the worker count runs to
// completion in index order; the pool has no task bound of its own
// (admission control is the caller's job).
func TestMapLargeBatch(t *testing.T) {
	p, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 5000
	out, err := Map(context.Background(), p, n, func(ctx context.Context, i int) (interface{}, error) {
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("%d results, want %d", len(out), n)
	}
	for i, v := range out {
		if v.(int) != i {
			t.Fatalf("slot %d holds %v", i, v)
		}
	}
}
