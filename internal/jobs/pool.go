// Package jobs is the repository's deterministic parallel execution
// engine: a worker pool that runs independent simulation cells
// concurrently while merging their results in canonical submission
// order, plus a content-addressed on-disk result cache keyed by FNV-1a
// job hashes (see cache.go).
//
// Determinism is the design constraint everything else bends around.
// Every task is an independent, pure computation (a seeded simulation),
// so execution order cannot change any individual result; the pool then
// guarantees that a Batch exposes its results indexed by submission
// position, never by completion order. A campaign driver that formats
// results by walking the batch in order therefore produces output
// byte-identical to a sequential loop, whatever interleaving the workers
// chose — the property cmd/faultcampaign's and cmd/pilotsim's regression
// tests pin down.
//
// The pool is one FIFO of batches under one mutex: an idle worker claims
// the next unclaimed task of the oldest batch, so a batch starts on every
// free worker at once and a long task never strands queued work behind
// it. The queue is unbounded; admission control belongs to the caller
// (cmd/pilotserve prices and caps the work it admits).
package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pilotrf/internal/telemetry"
	"pilotrf/internal/trace"
)

// Task is one unit of work. Tasks must be independent of one another and
// respect ctx cancellation if they run long. The returned value lands in
// the batch's Result slot at the task's submission index.
type Task func(ctx context.Context) (interface{}, error)

// Result is a task's outcome: exactly one of Value and Err is meaningful.
type Result struct {
	Value interface{}
	Err   error
}

// ErrClosed reports a submission to a closed pool.
var ErrClosed = errors.New("jobs: pool closed")

// PanicError wraps a panic recovered from a task so one faulty cell
// cannot take down the whole campaign: the panicking task's Result
// carries the PanicError, every other task completes normally, and the
// worker that caught it keeps serving.
type PanicError struct {
	// Value is the value passed to panic.
	Value interface{}
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("jobs: task panicked: %v\n%s", e.Value, e.Stack)
}

// Config sizes a Pool.
type Config struct {
	// Workers is the number of worker goroutines. Zero or negative is a
	// configuration error (use runtime.GOMAXPROCS(0) explicitly for
	// "one per core"); a deliberately sequential pool has Workers == 1.
	Workers int
	// Metrics, when set, registers the pool's counters and gauges
	// (jobs_submitted, jobs_completed, jobs_panics, jobs_queued,
	// jobs_running) in the registry, so a live telemetry endpoint
	// exposes queue pressure.
	Metrics *telemetry.Registry
}

// Pool is a FIFO worker pool. Create with New, submit batches with
// Submit, and stop it with Close.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond // guards queue and closed; signals new work and Close
	queue  []*Batch   // batches with unclaimed tasks, oldest first
	closed bool

	wg sync.WaitGroup

	// Metrics (nil-safe: only touched when configured).
	cSubmitted *telemetry.Counter
	cCompleted *telemetry.Counter
	cPanics    *telemetry.Counter
	gQueued    *telemetry.Gauge
	gRunning   *telemetry.Gauge
}

// Batch tracks one submission. Results are indexed by submission
// position regardless of execution order.
type Batch struct {
	ctx     context.Context
	tasks   []Task
	results []Result
	next    int // first unclaimed task; guarded by the pool's mu
	done    atomic.Int64
	fin     chan struct{}

	// Span tracing (zero value = disabled): the span context captured
	// from the submission ctx once per batch — never per task, so the
	// disabled hot path does no context lookups — and the wall-clock
	// submit instant queue waits are measured from.
	sc       trace.SpanContext
	submitNS int64
}

// New validates cfg and starts the workers.
func New(cfg Config) (*Pool, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("jobs: %d workers (a pool needs at least one; use runtime.GOMAXPROCS(0) for one per core)", cfg.Workers)
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	if reg := cfg.Metrics; reg != nil {
		p.cSubmitted = reg.Counter("jobs_submitted")
		p.cCompleted = reg.Counter("jobs_completed")
		p.cPanics = reg.Counter("jobs_panics")
		p.gQueued = reg.Gauge("jobs_queued")
		p.gRunning = reg.Gauge("jobs_running")
	}
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go p.worker(i)
	}
	return p, nil
}

// Close stops the workers after the already-queued work drains. It is
// safe to call once; submissions after Close fail with ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// Submit enqueues tasks as one batch behind every batch already queued.
// It never blocks. The batch's results appear in submission order.
func (p *Pool) Submit(ctx context.Context, tasks []Task) (*Batch, error) {
	b := &Batch{
		ctx:     ctx,
		tasks:   tasks,
		results: make([]Result, len(tasks)),
		fin:     make(chan struct{}),
	}
	if sc := trace.FromContext(ctx); sc.Active() {
		b.sc = sc
		if sc.WallClock() {
			b.submitNS = time.Now().UnixNano()
		}
	}
	if len(tasks) == 0 {
		close(b.fin)
		return b, nil
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.cSubmitted != nil {
		p.cSubmitted.Add(uint64(len(tasks)))
		p.gQueued.Add(int64(len(tasks)))
	}
	p.queue = append(p.queue, b)
	p.cond.Broadcast()
	return b, nil
}

// worker is one scheduling loop: claim a task, run it, repeat.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		b, i, ok := p.claim()
		if !ok {
			return
		}
		p.runTask(b, i, id)
	}
}

// claim takes the oldest batch's next unclaimed task, parking until work
// arrives. ok is false when the pool has closed and no work remains.
func (p *Pool) claim() (b *Batch, i int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 {
		if p.closed {
			return nil, 0, false
		}
		p.cond.Wait()
	}
	b = p.queue[0]
	i = b.next
	b.next++
	if b.next == len(b.tasks) {
		// Shift rather than reslice so the backing array is reused and
		// a steady stream of batches does not allocate queue space.
		n := copy(p.queue, p.queue[1:])
		p.queue[n] = nil
		p.queue = p.queue[:n]
	}
	return b, i, true
}

// runTask executes task i of b with panic isolation and completion
// accounting; worker is the executing worker's id.
func (p *Pool) runTask(b *Batch, i, worker int) {
	if p.gQueued != nil {
		p.gQueued.Add(-1)
		p.gRunning.Add(1)
	}
	// Span hook: one branch on a captured struct when disabled — no
	// context lookup, no allocation (test- and benchmark-asserted).
	// The span id derives from the parent span and submission index,
	// so the tree is identical whatever worker ran the task; worker and
	// queue wait are wall-only annotations.
	var sp *trace.ActiveSpan
	if b.sc.Active() {
		idx := strconv.Itoa(i)
		sp = b.sc.Start("pool.task", idx)
		sp.SetAttr("index", idx)
		if b.submitNS != 0 {
			sp.SetWallAttr("queue_ns", strconv.FormatInt(time.Now().UnixNano()-b.submitNS, 10))
		}
		sp.SetWallAttr("worker", strconv.Itoa(worker))
	}
	if err := b.ctx.Err(); err != nil {
		// The batch was cancelled: charge the task with the
		// cancellation instead of running it.
		b.results[i] = Result{Err: err}
	} else {
		b.results[i] = p.invoke(b.ctx, b.tasks[i])
	}
	sp.End()
	if p.gRunning != nil {
		p.gRunning.Add(-1)
		p.cCompleted.Inc()
	}
	if b.done.Add(1) == int64(len(b.tasks)) {
		close(b.fin)
	}
}

// invoke runs one task, converting panics to *PanicError.
func (p *Pool) invoke(ctx context.Context, t Task) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			if p.cPanics != nil {
				p.cPanics.Inc()
			}
			res = Result{Err: &PanicError{Value: r, Stack: debug.Stack()}}
		}
	}()
	v, err := t(ctx)
	return Result{Value: v, Err: err}
}

// Done returns a channel closed when every task of the batch has
// finished (successfully, with an error, or skipped by cancellation).
func (b *Batch) Done() <-chan struct{} { return b.fin }

// Wait blocks until the batch completes or ctx is cancelled, returning
// the results in submission order. After a ctx cancellation the batch
// keeps draining in the background (cancelled tasks finish instantly);
// the partially filled results must not be read.
func (b *Batch) Wait(ctx context.Context) ([]Result, error) {
	select {
	case <-b.fin:
		return b.results, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Map is the convenience path most callers want: run fn over n indexes
// on the pool and return the values in index order. The first task error
// (in index order, so deterministically the same one every run) is
// returned after the whole batch has drained.
func Map(ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (interface{}, error)) ([]interface{}, error) {
	tasks := make([]Task, n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = func(ctx context.Context) (interface{}, error) { return fn(ctx, i) }
	}
	b, err := p.Submit(ctx, tasks)
	if err != nil {
		return nil, err
	}
	results, err := b.Wait(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]interface{}, n)
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("jobs: task %d: %w", i, r.Err)
		}
		out[i] = r.Value
	}
	return out, nil
}

// DefaultWorkers is the conventional worker count: one per core.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
