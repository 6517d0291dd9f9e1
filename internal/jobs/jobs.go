// Package jobs is the asynchronous workload-management layer between
// the HTTP API and the batch pipeline. POST /v1/batch holds one
// connection open for an entire run, so a venue submitting its whole
// review queue is hostage to proxy timeouts, flaky clients and process
// restarts. A jobs.Queue instead accepts a submission, parks it behind
// a bounded queue (rejecting with ErrQueueFull instead of buffering
// unboundedly), and drains it through a small worker pool with
// per-venue fairness — one venue's 200-manuscript dump cannot starve
// another's single submission. Jobs expose live progress while they
// run, can be canceled queued or running, and survive restarts: specs
// and terminal results persist to a versioned, checksummed store (see
// store.go), so a job queued before a SIGTERM runs to completion in the
// next process and a finished job's result is still fetchable.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"minaret/internal/batch"
	"minaret/internal/core"
)

// State is a job's lifecycle position: queued → running → one of the
// terminal states (done, failed, canceled).
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Priority orders jobs within one venue's queue: all queued high jobs
// run before any normal ones, which run before any low ones; within one
// priority the order stays FIFO. Priorities never cross venues — the
// round-robin fairness across venues is preserved, so one venue marking
// everything high cannot starve another venue's normal work.
type Priority string

// Job priorities. The zero value means PriorityNormal.
const (
	PriorityHigh   Priority = "high"
	PriorityNormal Priority = "normal"
	PriorityLow    Priority = "low"
)

// ParsePriority maps user input onto a Priority: "" and "normal" are
// PriorityNormal; anything else but "high"/"low" is an error.
func ParsePriority(s string) (Priority, error) {
	switch Priority(s) {
	case "", PriorityNormal:
		return PriorityNormal, nil
	case PriorityHigh:
		return PriorityHigh, nil
	case PriorityLow:
		return PriorityLow, nil
	default:
		return "", fmt.Errorf("jobs: unknown priority %q (want high|normal|low)", s)
	}
}

// rank maps a priority onto its drain order: lower drains first. An
// unknown label sorts like normal so a hand-edited store file degrades
// gracefully instead of panicking.
func (p Priority) rank() int {
	switch p {
	case PriorityHigh:
		return 0
	case PriorityLow:
		return 2
	default:
		return 1
	}
}

// QueueFullError is the typed admission rejection: the queue already
// held Depth queued jobs when Submit was called. Callers turn it into
// explicit load-shedding (HTTP 429) instead of blocking or buffering.
type QueueFullError struct {
	// Depth is the configured queue bound that was hit.
	Depth int
}

// Error renders the rejection with the configured bound.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("job queue full (depth %d)", e.Depth)
}

// Is makes every QueueFullError match ErrQueueFull under errors.Is.
func (e *QueueFullError) Is(target error) bool {
	_, ok := target.(*QueueFullError)
	return ok
}

// Sentinel errors. ErrQueueFull matches any QueueFullError; the rest
// are returned as-is.
var (
	ErrQueueFull   error = &QueueFullError{}
	ErrNotFound          = errors.New("job not found")
	ErrDuplicateID       = errors.New("job id already exists")
	ErrFinished          = errors.New("job already finished")
	ErrStopped           = errors.New("job queue stopped")
)

// Spec is one batch submission: what to process and how. The queue
// treats Options as opaque bytes — the Runner interprets them — so the
// package stays decoupled from the HTTP layer's option vocabulary while
// specs still serialize losslessly into the store.
type Spec struct {
	// ID names the job. Empty lets the queue assign one; a caller-chosen
	// ID must be unique for the queue's lifetime (ErrDuplicateID).
	ID string `json:"id,omitempty"`
	// Venue is the fairness key: queued jobs drain FIFO within a venue,
	// round-robin across venues. Empty defaults to the first
	// manuscript's target venue (possibly still empty — one bucket).
	Venue string `json:"venue,omitempty"`
	// Manuscripts is the submission queue to process. Required.
	Manuscripts []core.Manuscript `json:"manuscripts"`
	// Workers bounds the batch's own per-manuscript concurrency
	// (batch.Options.Workers); 0 selects that default.
	Workers int `json:"workers,omitempty"`
	// Priority orders this job within its venue's queue (high before
	// normal before low, FIFO within one level). Empty means normal.
	Priority Priority `json:"priority,omitempty"`
	// CallbackURL, when set, is POSTed a WebhookPayload once the job
	// reaches a terminal state (done, failed or canceled) — see
	// notifier.go for the delivery, retry and signature contract.
	CallbackURL string `json:"callback_url,omitempty"`
	// Options carries runner-interpreted configuration (for the HTTP
	// layer: the RecommendOptions JSON), persisted verbatim.
	Options json.RawMessage `json:"options,omitempty"`
}

// Progress is a job's live item accounting, updated as the batch's
// OnItem hook fires.
type Progress struct {
	// Total is the number of manuscripts in the job.
	Total int `json:"total"`
	// Completed counts items with a final status; Completed == Total
	// once the run ends.
	Completed int `json:"completed"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	// Statuses holds the per-item outcome by manuscript index ("" =
	// still pending).
	Statuses []string `json:"statuses,omitempty"`
}

// Job is an immutable snapshot of one job, safe to hold after the
// queue has moved on. Result is shared, not copied — treat it as
// read-only.
type Job struct {
	ID          string   `json:"id"`
	Venue       string   `json:"venue,omitempty"`
	Priority    Priority `json:"priority,omitempty"`
	CallbackURL string   `json:"callback_url,omitempty"`
	State       State    `json:"state"`
	// Version counts this job's observable state changes, starting at 1
	// on admission. It only ever grows, so a client holding version N can
	// ask NextChange (or the SSE stream, whose event ids are versions)
	// for "anything after N" without missing or re-reporting a change.
	Version     uint64     `json:"version"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Progress    Progress   `json:"progress"`
	// Error is the failure (or cancellation) message for terminal
	// non-done states.
	Error string `json:"error,omitempty"`
	// Result is the full batch outcome, present once State is done.
	Result *batch.Summary `json:"result,omitempty"`
}

// Runner executes one job's batch. onItem must be forwarded to
// batch.Options.OnItem (or called equivalently) so the queue can track
// progress; the returned summary becomes the job's result. Runner
// errors mark the job failed.
type Runner func(ctx context.Context, spec Spec, onItem func(batch.Item)) (*batch.Summary, error)

// Options tunes a Queue; zero values select the documented defaults.
type Options struct {
	// Workers is the number of jobs processed concurrently. Default 2.
	Workers int
	// Depth bounds how many jobs may sit queued (running jobs don't
	// occupy a slot); Submit beyond it returns ErrQueueFull. Default 64.
	Depth int
	// StorePath names the durability file, persisted through a
	// FileStore. Empty disables persistence: jobs die with the process.
	StorePath string
	// Store, when non-nil, overrides StorePath with an explicit Store
	// implementation — a LeasedDirStore for shard topologies, or a test
	// double.
	Store Store
	// ReclaimInterval, for Reclaimer stores, is how often the queue
	// polls for newly claimable work (a dead peer's expired venue
	// leases). Zero disables polling; Reclaim can still be called
	// directly.
	ReclaimInterval time.Duration
	// IDPrefix is prepended to every queue-assigned job ID (and should
	// be the shard name, e.g. "s1-"): in a cluster, the prefix lets the
	// router send GET /v1/jobs/{id} straight to the owning shard.
	IDPrefix string
	// RetainTerminal bounds how many finished jobs (and their results)
	// are kept fetchable; the oldest are evicted first. Default 512;
	// negative retains everything.
	RetainTerminal int
	// Clock injects the time source; nil means time.Now.
	Clock func() time.Time
	// Logf reports background failures (store saves, webhook
	// exhaustion); nil discards.
	Logf func(format string, args ...any)

	// WebhookTimeout bounds one webhook delivery attempt (connection +
	// response). Default 10s.
	WebhookTimeout time.Duration
	// WebhookRetries is how many times a failed delivery is retried
	// after the first attempt (so Retries+1 attempts total). Default 3;
	// negative disables retries.
	WebhookRetries int
	// WebhookBackoff is the delay before the first retry; each further
	// retry doubles it. Default 1s.
	WebhookBackoff time.Duration
	// WebhookSecret, when non-empty, signs every webhook body with
	// HMAC-SHA256; the hex digest travels in the SignatureHeader.
	WebhookSecret string
}

// Validate rejects options New would have to guess at.
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("jobs: Workers %d is negative", o.Workers)
	}
	if o.Depth < 0 {
		return fmt.Errorf("jobs: Depth %d is negative", o.Depth)
	}
	if o.WebhookTimeout < 0 {
		return fmt.Errorf("jobs: WebhookTimeout %v is negative", o.WebhookTimeout)
	}
	if o.WebhookBackoff < 0 {
		return fmt.Errorf("jobs: WebhookBackoff %v is negative", o.WebhookBackoff)
	}
	if o.ReclaimInterval < 0 {
		return fmt.Errorf("jobs: ReclaimInterval %v is negative", o.ReclaimInterval)
	}
	if o.Store != nil && o.StorePath != "" {
		return fmt.Errorf("jobs: Store and StorePath are mutually exclusive")
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Depth == 0 {
		o.Depth = 64
	}
	if o.RetainTerminal == 0 {
		o.RetainTerminal = 512
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.WebhookTimeout == 0 {
		o.WebhookTimeout = 10 * time.Second
	}
	if o.WebhookRetries == 0 {
		o.WebhookRetries = 3
	}
	if o.WebhookBackoff == 0 {
		o.WebhookBackoff = time.Second
	}
	return o
}

// record is one job's mutable server-side state, guarded by Queue.mu.
type record struct {
	spec        Spec
	seq         uint64 // global submit order, FIFO tie-break
	version     uint64 // observable-change counter, 1 at admission
	state       State
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	progress    Progress
	errMsg      string
	result      *batch.Summary
	// cancel interrupts the run while state == running.
	cancel context.CancelFunc
	// userCanceled marks a Cancel call, distinguishing "the editor
	// withdrew the job" from "the process is shutting down" — the former
	// is terminal, the latter re-queues for the next process.
	userCanceled bool
}

func (r *record) snapshot() Job {
	j := Job{
		ID:          r.spec.ID,
		Venue:       r.spec.Venue,
		Priority:    r.spec.Priority,
		CallbackURL: r.spec.CallbackURL,
		State:       r.state,
		Version:     r.version,
		SubmittedAt: r.submittedAt,
		Progress:    r.progress,
		Error:       r.errMsg,
		Result:      r.result,
	}
	j.Progress.Statuses = append([]string(nil), r.progress.Statuses...)
	if !r.startedAt.IsZero() {
		t := r.startedAt
		j.StartedAt = &t
	}
	if !r.finishedAt.IsZero() {
		t := r.finishedAt
		j.FinishedAt = &t
	}
	return j
}

// Queue accepts, schedules, runs, and remembers jobs. All methods are
// safe for concurrent use.
type Queue struct {
	run  Runner
	opts Options
	// store is the persistence seam (nil: memory-only). Built from
	// Options.Store, or a FileStore over Options.StorePath.
	store Store

	// baseCtx parents every job run; Stop cancels it to interrupt
	// in-flight work.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu   sync.Mutex
	cond *sync.Cond // queued work available, or stopping
	jobs map[string]*record
	// venues holds the queued records per fairness bucket (FIFO each);
	// invariant: every list in the map is non-empty and its venue is in
	// ring exactly once.
	venues map[string][]*record
	ring   []string // venue round-robin order
	rr     int      // next ring position to serve
	queued int      // records in state queued (== sum of venue lists)
	// terminalOrder is the finish order, oldest first, for
	// RetainTerminal eviction.
	terminalOrder []string
	stopped       bool
	// changed is closed and replaced on every externally visible state
	// change; Wait long-polls on it.
	changed    chan struct{}
	seq        uint64
	submitted  uint64
	rejections uint64
	// started flips once Start has launched the pool; Resize before
	// Start only retargets opts.Workers and lets Start do the spawning.
	started bool
	// workerTarget is the pool size Resize asks for; workerLive counts
	// goroutines actually in worker(). A worker finding live > target
	// exits after its current job, which is how shrink drains without
	// dropping in-flight work.
	workerTarget int
	workerLive   int
	// starts is a bounded ring of recent job-start times (a start frees
	// one queued slot), chronological oldest-first; RetryAfterHint turns
	// its mean gap into the 429 Retry-After estimate.
	starts []time.Time
	// waitHist observes submit→start (queue wait); turnHist observes
	// submit→terminal (turnaround) for jobs that ran.
	waitHist *latencyHist
	turnHist *latencyHist

	wg sync.WaitGroup
	// saveMu serializes store writes so a fast transition can't rename
	// an older snapshot over a newer one.
	saveMu sync.Mutex

	// notify delivers terminal-transition webhooks (see notifier.go).
	notify *notifier
}

// New builds a Queue over run. It panics when opts fail Validate
// (callers turning user input into options should Validate first);
// call Load to restore a previous process's jobs, then Start to begin
// processing.
func New(run Runner, opts Options) *Queue {
	if run == nil {
		panic("jobs: nil Runner")
	}
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		run:        run,
		opts:       opts.withDefaults(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*record),
		venues:     make(map[string][]*record),
		changed:    make(chan struct{}),
		waitHist:   newLatencyHist(),
		turnHist:   newLatencyHist(),
	}
	q.cond = sync.NewCond(&q.mu)
	q.notify = newNotifier(q.opts)
	switch {
	case q.opts.Store != nil:
		q.store = q.opts.Store
	case q.opts.StorePath != "":
		q.store = &FileStore{Path: q.opts.StorePath}
	}
	return q
}

// Start launches the worker pool, the webhook notifier, and — for
// Reclaimer stores with a ReclaimInterval — the reclaim poller. Call
// once.
func (q *Queue) Start() {
	q.notify.start()
	q.mu.Lock()
	q.started = true
	q.workerTarget = q.opts.Workers
	q.spawnWorkersLocked()
	q.mu.Unlock()
	if _, ok := q.store.(Reclaimer); ok && q.opts.ReclaimInterval > 0 {
		q.wg.Add(1)
		go q.reclaimLoop()
	}
}

// Stop shuts the queue down: no new submissions, running jobs are
// interrupted and re-queued (in the store) for the next process, and
// the final state is saved. It blocks for the workers up to ctx's
// deadline; the save happens either way. Idempotent in effect — a
// second Stop finds nothing to do.
func (q *Queue) Stop(ctx context.Context) error {
	q.baseCancel()
	q.mu.Lock()
	q.stopped = true
	q.cond.Broadcast()
	q.mu.Unlock()

	done := make(chan struct{})
	go func() { q.wg.Wait(); close(done) }()
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = ctx.Err()
	}
	// The workers are down (or abandoned): no further terminal
	// transitions can enqueue deliveries, so the notifier can drain
	// what remains on the same deadline.
	q.notify.stop(ctx)
	saveErr := q.save()
	if q.store != nil {
		// Closing after the final save releases whatever the store
		// holds (a LeasedDirStore's venue leases) so a successor claims
		// the partitions immediately instead of waiting out the TTL.
		if err := q.store.Close(); err != nil {
			q.opts.Logf("job store close: %v", err)
		}
	}
	if saveErr != nil {
		return saveErr
	}
	return waitErr
}

// now is the injected clock.
func (q *Queue) now() time.Time { return q.opts.Clock() }

// bumpChangedLocked wakes every change listener — Wait long-polls,
// NextChange callers, SSE streams. Callers hold q.mu.
func (q *Queue) bumpChangedLocked() {
	close(q.changed)
	q.changed = make(chan struct{})
}

// touchLocked records an observable change to one job — version up,
// listeners woken. Every record-tied transition goes through here so a
// snapshot's Version tells a client exactly whether it has seen this
// state. Callers hold q.mu.
func (q *Queue) touchLocked(rec *record) {
	rec.version++
	q.bumpChangedLocked()
}

// newID returns a fresh random job ID.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: id entropy: %v", err))
	}
	return "job-" + hex.EncodeToString(b[:])
}

// Submit admits spec, returning its queued snapshot, or rejects:
// ErrQueueFull (typed QueueFullError) once Depth jobs are queued,
// ErrDuplicateID for a reused caller-chosen ID, ErrStopped after Stop.
// Admission never blocks on the workers.
func (q *Queue) Submit(spec Spec) (Job, error) {
	if len(spec.Manuscripts) == 0 {
		return Job{}, errors.New("jobs: spec has no manuscripts")
	}
	if spec.Workers < 0 {
		return Job{}, fmt.Errorf("jobs: spec workers %d is negative", spec.Workers)
	}
	p, err := ParsePriority(string(spec.Priority))
	if err != nil {
		return Job{}, err
	}
	spec.Priority = p
	if err := validateCallbackURL(spec.CallbackURL); err != nil {
		return Job{}, err
	}
	if spec.Venue == "" {
		spec.Venue = spec.Manuscripts[0].TargetVenue
	}

	q.mu.Lock()
	if q.stopped {
		q.mu.Unlock()
		return Job{}, ErrStopped
	}
	if q.queued >= q.opts.Depth {
		q.rejections++
		depth := q.opts.Depth
		q.mu.Unlock()
		return Job{}, &QueueFullError{Depth: depth}
	}
	if spec.ID == "" {
		for {
			spec.ID = q.opts.IDPrefix + newID()
			if _, taken := q.jobs[spec.ID]; !taken {
				break
			}
		}
	} else if _, taken := q.jobs[spec.ID]; taken {
		q.mu.Unlock()
		return Job{}, fmt.Errorf("%w: %q", ErrDuplicateID, spec.ID)
	}
	rec := &record{
		spec:        spec,
		seq:         q.seq,
		version:     1,
		state:       StateQueued,
		submittedAt: q.now(),
		progress: Progress{
			Total:    len(spec.Manuscripts),
			Statuses: make([]string, len(spec.Manuscripts)),
		},
	}
	q.seq++
	q.submitted++
	q.jobs[spec.ID] = rec
	q.enqueueLocked(rec)
	q.cond.Signal()
	q.bumpChangedLocked()
	snap := rec.snapshot()
	q.mu.Unlock()

	q.saveLogged()
	return snap, nil
}

// enqueueLocked inserts rec into its venue's queue in priority order —
// after the last queued record of the same or higher priority, so each
// priority level stays FIFO — registering the venue in the round-robin
// ring on first use. Callers hold q.mu.
func (q *Queue) enqueueLocked(rec *record) {
	v := rec.spec.Venue
	if _, ok := q.venues[v]; !ok {
		q.ring = append(q.ring, v)
	}
	list := q.venues[v]
	i := len(list)
	for i > 0 && list[i-1].spec.Priority.rank() > rec.spec.Priority.rank() {
		i--
	}
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = rec
	q.venues[v] = list
	q.queued++
}

// popLocked removes and returns the next queued record: round-robin
// across venues, FIFO within one. Callers hold q.mu.
func (q *Queue) popLocked() *record {
	if len(q.ring) == 0 {
		return nil
	}
	if q.rr >= len(q.ring) {
		q.rr = 0
	}
	v := q.ring[q.rr]
	list := q.venues[v]
	rec := list[0]
	if len(list) == 1 {
		delete(q.venues, v)
		q.ring = append(q.ring[:q.rr], q.ring[q.rr+1:]...)
		// q.rr now indexes the venue after v; wrap if v was last.
		if q.rr >= len(q.ring) {
			q.rr = 0
		}
	} else {
		q.venues[v] = list[1:]
		q.rr = (q.rr + 1) % len(q.ring)
	}
	q.queued--
	return rec
}

// removeQueuedLocked unlinks a specific queued record (Cancel path).
// Callers hold q.mu.
func (q *Queue) removeQueuedLocked(rec *record) {
	v := rec.spec.Venue
	list := q.venues[v]
	for i, r := range list {
		if r != rec {
			continue
		}
		list = append(list[:i], list[i+1:]...)
		if len(list) == 0 {
			delete(q.venues, v)
			for j, name := range q.ring {
				if name == v {
					q.ring = append(q.ring[:j], q.ring[j+1:]...)
					if q.rr > j {
						q.rr--
					}
					break
				}
			}
			if q.rr >= len(q.ring) {
				q.rr = 0
			}
		} else {
			q.venues[v] = list
		}
		q.queued--
		return
	}
}

// worker drains the queue until Stop, or until a Resize shrink leaves
// more live workers than the target — then it exits as soon as it is
// between jobs, never mid-run.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for !q.stopped && q.workerLive <= q.workerTarget && q.queued == 0 {
			q.cond.Wait()
		}
		if q.stopped || q.workerLive > q.workerTarget {
			q.workerLive--
			q.mu.Unlock()
			return
		}
		rec := q.popLocked()
		rec.state = StateRunning
		rec.startedAt = q.now()
		q.noteStartLocked(rec)
		ctx, cancel := context.WithCancel(q.baseCtx)
		rec.cancel = cancel
		spec := rec.spec
		q.touchLocked(rec)
		q.mu.Unlock()

		sum, err := q.run(ctx, spec, func(it batch.Item) { q.noteItem(rec, it) })
		cancel()
		q.finish(rec, sum, err)
	}
}

// noteItem folds one final batch.Item into the job's progress.
func (q *Queue) noteItem(rec *record, it batch.Item) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if rec.state != StateRunning {
		return
	}
	p := &rec.progress
	if it.Index < 0 || it.Index >= len(p.Statuses) || p.Statuses[it.Index] != "" {
		return
	}
	p.Statuses[it.Index] = it.Status
	p.Completed++
	switch it.Status {
	case batch.StatusOK:
		p.Succeeded++
	case batch.StatusCanceled:
		p.Canceled++
	default:
		p.Failed++
	}
	q.touchLocked(rec)
}

// finish records a run's outcome. It persists first and publishes
// after: the outcome is staged on a copy of the record, saved, and only
// then applied to the record, versioned and announced — waiters woken,
// the webhook enqueued — so no client is ever told of a state the store
// does not hold yet.
func (q *Queue) finish(rec *record, sum *batch.Summary, err error) {
	q.mu.Lock()
	rec.cancel = nil
	next := *rec
	q.mu.Unlock()
	interrupted := err != nil || (sum != nil && sum.Canceled > 0)
	switch {
	case next.userCanceled && interrupted:
		next.state = StateCanceled
		next.errMsg = "canceled by request"
		next.result = sum
	case q.baseCtx.Err() != nil && !next.userCanceled:
		// Shutdown tore the run down mid-flight: the work is not lost,
		// it re-queues — in the store — and the next process runs it
		// from scratch.
		next.state = StateQueued
		next.startedAt = time.Time{}
		next.userCanceled = false
		next.errMsg = ""
		next.result = nil
		next.progress = Progress{
			Total:    len(next.spec.Manuscripts),
			Statuses: make([]string, len(next.spec.Manuscripts)),
		}
	case err != nil:
		next.state = StateFailed
		next.errMsg = err.Error()
	default:
		// Per-item failures are an outcome, not a job failure — exactly
		// like /v1/batch answering 200 with per-item statuses.
		next.state = StateDone
		next.result = sum
	}
	if next.state.Terminal() {
		next.finishedAt = q.now()
	}

	// A disk hiccup costs durability, not the transition: publish runs
	// whether or not the write succeeded.
	saveErr := q.saveStaged(&next, func() {
		rec.state, rec.userCanceled = next.state, next.userCanceled
		rec.startedAt, rec.finishedAt = next.startedAt, next.finishedAt
		rec.progress, rec.errMsg, rec.result = next.progress, next.errMsg, next.result
		if rec.state.Terminal() {
			// Canceled runs are excluded: their truncated turnaround
			// would read as the system speeding up under a cancel storm.
			if rec.state != StateCanceled {
				q.turnHist.observe(rec.finishedAt.Sub(rec.submittedAt))
			}
			q.terminalOrder = append(q.terminalOrder, rec.spec.ID)
			q.evictTerminalLocked()
			q.notify.enqueue(rec.snapshot())
		}
		q.touchLocked(rec)
	})
	if saveErr != nil {
		q.opts.Logf("job store save: %v", saveErr)
	}
}

// evictTerminalLocked drops the oldest finished jobs beyond
// RetainTerminal. Callers hold q.mu.
func (q *Queue) evictTerminalLocked() {
	if q.opts.RetainTerminal < 0 {
		return
	}
	for len(q.terminalOrder) > q.opts.RetainTerminal {
		delete(q.jobs, q.terminalOrder[0])
		q.terminalOrder = q.terminalOrder[1:]
	}
}

// Cancel withdraws a job. Queued jobs leave the queue at once and
// become canceled once the store holds the cancellation; running jobs
// have their context canceled and settle to canceled once the batch
// unwinds (a run that had already finished every item stays done —
// cancellation raced completion). Terminal jobs return
// ErrFinished; unknown IDs ErrNotFound. The returned snapshot is the
// state as of the call.
func (q *Queue) Cancel(id string) (Job, error) {
	q.mu.Lock()
	rec, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return Job{}, ErrNotFound
	}
	switch rec.state {
	case StateQueued:
		if rec.userCanceled {
			// A concurrent Cancel has unlinked it and is saving.
			snap := rec.snapshot()
			q.mu.Unlock()
			return snap, nil
		}
		// Unlinked now so no worker starts it; like finish, the
		// canceled state is staged, saved, and only then published.
		q.removeQueuedLocked(rec)
		rec.userCanceled = true
		next := *rec
		next.state = StateCanceled
		next.errMsg = "canceled by request"
		next.finishedAt = q.now()
		q.mu.Unlock()
		var snap Job
		saveErr := q.saveStaged(&next, func() {
			rec.state, rec.errMsg, rec.finishedAt = next.state, next.errMsg, next.finishedAt
			q.terminalOrder = append(q.terminalOrder, rec.spec.ID)
			q.evictTerminalLocked()
			q.notify.enqueue(rec.snapshot())
			q.touchLocked(rec)
			snap = rec.snapshot()
		})
		if saveErr != nil {
			q.opts.Logf("job store save: %v", saveErr)
		}
		return snap, nil
	case StateRunning:
		rec.userCanceled = true
		if rec.cancel != nil {
			rec.cancel()
		}
		snap := rec.snapshot()
		q.mu.Unlock()
		return snap, nil
	default:
		snap := rec.snapshot()
		q.mu.Unlock()
		return snap, ErrFinished
	}
}

// Get returns the job's current snapshot.
func (q *Queue) Get(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	rec, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	return rec.snapshot(), nil
}

// NextChange is the one change-notification primitive — ?wait= long
// polls and SSE streams are both built on it, so neither can drift into
// its own subtly different (and missed-wakeup-prone) wait loop. It
// blocks until the job's version exceeds since, then returns the fresh
// snapshot. A terminal job returns immediately whatever since says —
// its version will never move again, and looping callers would
// otherwise hang forever on a finished job. When the queue stops, it
// releases with the current snapshot and ErrStopped; ctx cancellation
// returns the latest snapshot with ctx.Err().
//
// The missed-wakeup discipline: the snapshot and the changed channel
// are read under one q.mu hold, and touchLocked bumps the version
// before closing the channel (also under q.mu). So either the caller
// sees the new version in the snapshot, or it holds a channel that the
// concurrent change is guaranteed to close — never neither.
func (q *Queue) NextChange(ctx context.Context, id string, since uint64) (Job, error) {
	for {
		q.mu.Lock()
		rec, ok := q.jobs[id]
		if !ok {
			q.mu.Unlock()
			return Job{}, ErrNotFound
		}
		snap := rec.snapshot()
		ch := q.changed
		stopped := q.stopped
		q.mu.Unlock()
		if snap.Version > since || snap.State.Terminal() {
			return snap, nil
		}
		if stopped || q.baseCtx.Err() != nil {
			return snap, ErrStopped
		}
		select {
		case <-ch:
		case <-q.baseCtx.Done():
		case <-ctx.Done():
			return snap, ctx.Err()
		}
	}
}

// Wait long-polls: it returns the job's snapshot as soon as it is
// terminal, or the current snapshot once d elapses — never an error for
// a slow job. ctx cancellation returns the latest snapshot with
// ctx.Err(). When the queue stops, every pending Wait releases
// immediately with the current snapshot, so a long-poll can never hold
// an HTTP drain hostage for its full window.
func (q *Queue) Wait(ctx context.Context, id string, d time.Duration) (Job, error) {
	wctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var since uint64
	for {
		snap, err := q.NextChange(wctx, id, since)
		switch {
		case errors.Is(err, ErrStopped):
			return snap, nil
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// The wait window elapsed, not the caller's context: the
			// current snapshot is the contractual answer.
			return snap, nil
		case err != nil:
			return snap, err
		}
		if snap.State.Terminal() {
			return snap, nil
		}
		// A non-terminal change (progress tick) isn't what Wait waits
		// for — keep polling from the version just seen.
		since = snap.Version
	}
}

// List returns every known job in submission order, without results
// (fetch one job for its result) — the collection view stays cheap no
// matter how fat the finished summaries are.
func (q *Queue) List() []Job {
	q.mu.Lock()
	recs := make([]*record, 0, len(q.jobs))
	for _, rec := range q.jobs {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	out := make([]Job, len(recs))
	for i, rec := range recs {
		out[i] = rec.snapshot()
		out[i].Result = nil
	}
	q.mu.Unlock()
	return out
}

// Stats is the queue's operational counters, the /api/stats jobs block.
type Stats struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Depth and Workers echo the configuration.
	Depth   int `json:"queue_depth"`
	Workers int `json:"workers"`
	// Submitted counts admissions; Rejections counts ErrQueueFull
	// answers — the load the queue shed instead of buffering.
	Submitted  uint64 `json:"submitted"`
	Rejections uint64 `json:"rejections"`
	// Webhooks reports callback-delivery outcomes (see notifier.go).
	Webhooks WebhookStats `json:"webhooks"`
	// QueueWait is submit→start latency; Turnaround is submit→terminal
	// for jobs that ran (canceled runs excluded). Bounded HDR-style
	// buckets — see latency.go.
	QueueWait  LatencyStats `json:"queue_wait"`
	Turnaround LatencyStats `json:"turnaround"`
}

// Stats returns a point-in-time snapshot of the counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Depth:      q.opts.Depth,
		Workers:    q.opts.Workers,
		Submitted:  q.submitted,
		Rejections: q.rejections,
		Webhooks:   q.notify.stats(),
		QueueWait:  q.waitHist.stats(),
		Turnaround: q.turnHist.stats(),
	}
	for _, rec := range q.jobs {
		switch rec.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		}
	}
	return st
}
