package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minaret/internal/batch"
)

// blockRunner gates every run on the channel installed at start time,
// so tests control exactly when a worker becomes free.
type blockRunner struct {
	mu      sync.Mutex
	block   chan struct{}
	started chan string
}

func newBlockRunner() *blockRunner {
	return &blockRunner{block: make(chan struct{}), started: make(chan string, 64)}
}

func (b *blockRunner) gate() chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.block
}

// reset installs a fresh gate for the next phase of a test.
func (b *blockRunner) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.block = make(chan struct{})
}

func (b *blockRunner) run(ctx context.Context, spec Spec, onItem func(batch.Item)) (*batch.Summary, error) {
	gate := b.gate()
	// Report the start without blocking: a test that never reads
	// started (TestResizeRaces) admits more runs than the buffer holds,
	// and a blocking send would then stall every later run forever.
	select {
	case b.started <- spec.ID:
	default:
	}
	select {
	case <-gate:
	case <-ctx.Done():
	}
	return okRunner(ctx, spec, onItem)
}

func (b *blockRunner) waitStarts(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-b.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d runs started", i, n)
		}
	}
}

// noMoreStarts asserts no further run begins within the grace window.
func (b *blockRunner) noMoreStarts(t *testing.T, grace time.Duration) {
	t.Helper()
	select {
	case id := <-b.started:
		t.Fatalf("unexpected extra run started: %s", id)
	case <-time.After(grace):
	}
}

func waitAllTerminal(t *testing.T, q *Queue, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := q.Stats()
		if st.Done+st.Failed+st.Canceled >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResizeGrow: a grow takes effect immediately — queued jobs behind
// a saturated single worker start running as soon as the pool widens.
func TestResizeGrow(t *testing.T) {
	r := newBlockRunner()
	q := New(r.run, Options{Workers: 1, Depth: 16})
	q.Start()
	defer stopQueue(t, q)

	for i := 0; i < 4; i++ {
		if _, err := q.Submit(Spec{Manuscripts: manuscripts(1, fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	r.waitStarts(t, 1)
	r.noMoreStarts(t, 100*time.Millisecond)

	if err := q.Resize(4); err != nil {
		t.Fatal(err)
	}
	r.waitStarts(t, 3) // the three queued jobs start without any finish
	if got := q.Stats().Workers; got != 4 {
		t.Fatalf("Stats.Workers = %d, want 4", got)
	}
	close(r.gate())
	waitAllTerminal(t, q, 4)
}

// TestResizeShrinkBelowRunning: shrinking under the running count never
// interrupts a job — every in-flight run completes — and once the
// surplus workers exit, new work drains strictly one at a time.
func TestResizeShrinkBelowRunning(t *testing.T) {
	r := newBlockRunner()
	q := New(r.run, Options{Workers: 3, Depth: 16})
	q.Start()
	defer stopQueue(t, q)

	for i := 0; i < 3; i++ {
		if _, err := q.Submit(Spec{Manuscripts: manuscripts(1, fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	r.waitStarts(t, 3)
	if err := q.Resize(1); err != nil {
		t.Fatal(err)
	}
	close(r.gate())
	waitAllTerminal(t, q, 3)
	st := q.Stats()
	if st.Done != 3 || st.Canceled != 0 || st.Failed != 0 {
		t.Fatalf("in-flight jobs did not all complete: %+v", st)
	}

	// Phase 2: with the pool settled at one worker, three new jobs must
	// run strictly sequentially.
	r.reset()
	for i := 0; i < 3; i++ {
		if _, err := q.Submit(Spec{Manuscripts: manuscripts(1, "w")}); err != nil {
			t.Fatal(err)
		}
	}
	r.waitStarts(t, 1)
	r.noMoreStarts(t, 200*time.Millisecond)
	close(r.gate())
	waitAllTerminal(t, q, 6)
}

// TestResizeAfterStop: the pool cannot be grown (or re-bounded) while
// the queue is draining at shutdown or after it.
func TestResizeAfterStop(t *testing.T) {
	q := New(okRunner, Options{Workers: 1, Depth: 4})
	q.Start()
	stopQueue(t, q)
	if err := q.Resize(8); !errors.Is(err, ErrStopped) {
		t.Fatalf("Resize after Stop = %v, want ErrStopped", err)
	}
	if err := q.SetCapacity(8); !errors.Is(err, ErrStopped) {
		t.Fatalf("SetCapacity after Stop = %v, want ErrStopped", err)
	}
	if err := q.Resize(0); err == nil || errors.Is(err, ErrStopped) {
		t.Fatalf("Resize(0) = %v, want validation error", err)
	}
}

// TestResizeRaces hammers Resize, SetCapacity, Submit, Cancel, Stats
// and RetryAfterHint concurrently; run under -race this is the data
// contract for the adapt controller actuating a live queue.
func TestResizeRaces(t *testing.T) {
	r := newBlockRunner()
	close(r.gate()) // never block; runs complete immediately
	q := New(r.run, Options{Workers: 2, Depth: 32, RetainTerminal: -1})
	q.Start()

	var ids sync.Map
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(4)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 80; i++ {
			if err := q.Resize(1 + rng.Intn(5)); err != nil {
				t.Error(err)
			}
			if err := q.SetCapacity(8 + rng.Intn(64)); err != nil {
				t.Error(err)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var submitted atomic.Int64
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			j, err := q.Submit(Spec{Manuscripts: manuscripts(1, fmt.Sprintf("v%d", i%4))})
			if err == nil {
				submitted.Add(1)
				ids.Store(j.ID, true)
			} else if !errors.Is(err, ErrQueueFull) {
				t.Errorf("submit: %v", err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ids.Range(func(k, _ any) bool {
				q.Cancel(k.(string))
				return false
			})
			time.Sleep(time.Millisecond)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q.Stats()
			q.RetryAfterHint()
			time.Sleep(time.Millisecond)
		}
	}()

	// Give the mill a moment, then stop the aux loops and drain.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	waitAllTerminal(t, q, int(submitted.Load()))
	stopQueue(t, q)
}

// TestSetCapacity: shrinking below the backlog strands nothing — the
// already-queued jobs drain — while new submissions see the new bound.
func TestSetCapacity(t *testing.T) {
	r := newBlockRunner()
	q := New(r.run, Options{Workers: 1, Depth: 2})
	q.Start()
	defer stopQueue(t, q)

	// One running + two queued fills depth 2. Wait for the first job to
	// start so the next two land in the queue, not the worker.
	if _, err := q.Submit(Spec{Manuscripts: manuscripts(1, "v")}); err != nil {
		t.Fatal(err)
	}
	r.waitStarts(t, 1)
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(Spec{Manuscripts: manuscripts(1, "v")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Submit(Spec{Manuscripts: manuscripts(1, "v")}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over depth = %v, want ErrQueueFull", err)
	}
	if err := q.SetCapacity(5); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{Manuscripts: manuscripts(1, "v")}); err != nil {
		t.Fatalf("submit after grow: %v", err)
	}
	if err := q.SetCapacity(1); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{Manuscripts: manuscripts(1, "v")}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over shrunk depth = %v, want ErrQueueFull", err)
	}
	close(r.gate())
	waitAllTerminal(t, q, 4)
	if st := q.Stats(); st.Done != 4 {
		t.Fatalf("queued jobs stranded by shrink: %+v", st)
	}
}

// TestRetryAfterHint: the 429 back-off tracks the observed drain rate
// and stays inside [1s, 60s].
func TestRetryAfterHint(t *testing.T) {
	clock := newFakeClock()
	r := newBlockRunner()
	q := New(r.run, Options{Workers: 1, Depth: 1, Clock: clock.Now})
	q.Start()
	defer stopQueue(t, q)

	if got := q.RetryAfterHint(); got != time.Second {
		t.Fatalf("idle hint = %v, want 1s", got)
	}

	// Drive starts 5s apart: each release frees the worker, which pops
	// the next queued job at the advanced fake time.
	submit := func() {
		t.Helper()
		if _, err := q.Submit(Spec{Manuscripts: manuscripts(1, "v")}); err != nil {
			t.Fatal(err)
		}
	}
	submit()
	r.waitStarts(t, 1)
	for i := 0; i < 4; i++ {
		submit() // occupies the single queued slot
		clock.Advance(5 * time.Second)
		old := r.gate()
		r.reset()
		close(old) // current run finishes; worker pops the queued job
		r.waitStarts(t, 1)
	}
	submit() // refill the slot so the queue is full again
	if got := q.RetryAfterHint(); got != 5*time.Second {
		t.Fatalf("drain-rate hint = %v, want 5s", got)
	}

	// A queue with a free slot answers the floor regardless of history.
	q.Cancel(q.List()[len(q.List())-1].ID)
	if got := q.RetryAfterHint(); got != time.Second {
		t.Fatalf("free-slot hint = %v, want 1s", got)
	}
	close(r.gate())
}

// TestLatencyStats: queue-wait and turnaround percentiles come from the
// injected clock, not wall time.
func TestLatencyStats(t *testing.T) {
	clock := newFakeClock()
	r := newBlockRunner()
	q := New(r.run, Options{Workers: 1, Depth: 8, Clock: clock.Now})
	q.Start()
	defer stopQueue(t, q)

	if _, err := q.Submit(Spec{Manuscripts: manuscripts(1, "v")}); err != nil {
		t.Fatal(err)
	}
	r.waitStarts(t, 1)
	if _, err := q.Submit(Spec{Manuscripts: manuscripts(1, "v")}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(8 * time.Second) // second job waits 8s behind the first
	old := r.gate()
	r.reset()
	close(old)
	r.waitStarts(t, 1)
	close(r.gate())
	waitAllTerminal(t, q, 2)

	st := q.Stats()
	if st.QueueWait.Count != 2 {
		t.Fatalf("queue-wait count = %d, want 2", st.QueueWait.Count)
	}
	if st.QueueWait.MaxMs != 8000 {
		t.Fatalf("queue-wait max = %vms, want 8000", st.QueueWait.MaxMs)
	}
	if st.Turnaround.Count != 2 {
		t.Fatalf("turnaround count = %d, want 2", st.Turnaround.Count)
	}
	if st.Turnaround.P99Ms < st.Turnaround.P50Ms {
		t.Fatalf("p99 %v < p50 %v", st.Turnaround.P99Ms, st.Turnaround.P50Ms)
	}
	if st.Turnaround.MaxMs < 8000 {
		t.Fatalf("turnaround max = %vms, want >= 8000", st.Turnaround.MaxMs)
	}
}
