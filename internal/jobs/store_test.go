package jobs

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"minaret/internal/batch"
	"minaret/internal/envelope"
)

func storePath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.store")
}

// TestStoreRoundTrip is the durability story end to end inside one
// test: a finished job's result survives a restart, and a job still
// queued at shutdown runs to completion in the next queue.
func TestStoreRoundTrip(t *testing.T) {
	path := storePath(t)
	// "parked" blocks until shutdown; everything else completes.
	run := func(ctx context.Context, spec Spec, onItem func(batch.Item)) (*batch.Summary, error) {
		if spec.ID == "parked" {
			<-ctx.Done()
		}
		return okRunner(ctx, spec, onItem)
	}

	q1 := New(run, Options{Workers: 1, Depth: 8, StorePath: path})
	q1.Start()
	// One job runs to done...
	if _, err := q1.Submit(Spec{ID: "finished", Venue: "A", Manuscripts: manuscripts(2, "")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if job, err := q1.Wait(ctx, "finished", 10*time.Second); err != nil || job.State != StateDone {
		t.Fatalf("first life: %+v, %v", job, err)
	}
	// ...and another is still pending when the queue shuts down —
	// whether the worker had picked it up or not, Stop records it
	// queued for the next process.
	if _, err := q1.Submit(Spec{ID: "parked", Venue: "B", Manuscripts: manuscripts(3, ""), Workers: 2}); err != nil {
		t.Fatal(err)
	}
	stopQueue(t, q1)

	// Second life.
	q2 := New(okRunner, Options{Workers: 1, Depth: 8, StorePath: path})
	stats, ok, err := q2.Load()
	if err != nil || !ok {
		t.Fatalf("load: %v ok=%v", err, ok)
	}
	if stats.Resumed != 1 || stats.Finished != 1 || stats.Dropped != 0 {
		t.Fatalf("restore stats = %+v", stats)
	}
	if stats.SavedAt.IsZero() {
		t.Fatal("restore lost the save timestamp")
	}
	// The finished job's result is fetchable without re-running.
	got, err := q2.Get("finished")
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Result == nil || got.Result.Succeeded != 2 {
		t.Fatalf("restored job = %+v", got)
	}
	if got.FinishedAt == nil || got.Progress.Completed != 2 {
		t.Fatalf("restored terminal metadata = %+v", got)
	}
	// The parked job runs to completion once workers start.
	q2.Start()
	defer stopQueue(t, q2)
	done, err := q2.Wait(ctx, "parked", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Result == nil || done.Result.Succeeded != 3 {
		t.Fatalf("resumed job = %+v", done)
	}
	// The spec round-tripped whole (venue + batch workers preserved).
	if done.Venue != "B" {
		t.Fatalf("resumed venue = %q", done.Venue)
	}
}

// TestStoreRunningDemotedToQueued: a job mid-run when the process dies
// hard (no graceful Stop — the file on disk is whatever the last
// transition saved) must come back queued, not lost and not half-done.
func TestStoreRunningDemotedToQueued(t *testing.T) {
	path := storePath(t)
	g := newGatedRunner()
	q1 := New(g.run, Options{Workers: 1, StorePath: path})
	q1.Start()
	if _, err := q1.Submit(Spec{ID: "inflight", Manuscripts: manuscripts(2, "")}); err != nil {
		t.Fatal(err)
	}
	<-g.started // running now; the Submit-time save saw it queued
	// Simulate SIGKILL: the next process reads what is on disk while the
	// run is still in flight, so copy the file now. Then release and stop
	// q1, so it neither saves its done state into the copy nor writes
	// into the TempDir during cleanup.
	killed := filepath.Join(t.TempDir(), "killed.store")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(killed, b, 0o644); err != nil {
		t.Fatal(err)
	}
	close(g.release)
	stopQueue(t, q1)

	q2 := New(okRunner, Options{Workers: 1, StorePath: killed})
	stats, ok, err := q2.Load()
	if err != nil || !ok {
		t.Fatalf("load: %v ok=%v", err, ok)
	}
	if stats.Resumed != 1 {
		t.Fatalf("restore stats = %+v", stats)
	}
	job, err := q2.Get("inflight")
	if err != nil || job.State != StateQueued {
		t.Fatalf("restored job = %+v, %v", job, err)
	}
	if job.Progress.Completed != 0 {
		t.Fatalf("restored progress not reset: %+v", job.Progress)
	}
}

func TestStoreMissingIsColdStart(t *testing.T) {
	q := New(okRunner, Options{StorePath: filepath.Join(t.TempDir(), "absent.store")})
	stats, ok, err := q.Load()
	if err != nil || ok {
		t.Fatalf("load = %+v ok=%v err=%v", stats, ok, err)
	}
}

func TestStoreCorruptRejectedWhole(t *testing.T) {
	path := storePath(t)
	q1 := New(okRunner, Options{Workers: 1, StorePath: path})
	q1.Start()
	if _, err := q1.Submit(Spec{ID: "x", Manuscripts: manuscripts(1, "")}); err != nil {
		t.Fatal(err)
	}
	stopQueue(t, q1)

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	q2 := New(okRunner, Options{StorePath: path})
	if _, ok, err := q2.Load(); err == nil || ok {
		t.Fatalf("corrupt store loaded: ok=%v err=%v", ok, err)
	} else if !strings.Contains(err.Error(), path) {
		t.Fatalf("corrupt-store error %q does not name the offending file %s", err, path)
	}
	if len(q2.List()) != 0 {
		t.Fatal("corrupt load touched the queue")
	}
}

func TestStoreVersionMismatch(t *testing.T) {
	path := storePath(t)
	q1 := New(okRunner, Options{Workers: 1, StorePath: path})
	q1.Start()
	if _, err := q1.Submit(Spec{ID: "x", Manuscripts: manuscripts(1, "")}); err != nil {
		t.Fatal(err)
	}
	stopQueue(t, q1)

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(b[8:12], 99)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	q2 := New(okRunner, Options{StorePath: path})
	if _, ok, err := q2.Load(); err == nil || ok {
		t.Fatalf("future-version store loaded: ok=%v err=%v", ok, err)
	} else if !strings.Contains(err.Error(), path) {
		t.Fatalf("version-mismatch error %q does not name the offending file %s", err, path)
	}
}

func TestStoreBadMagic(t *testing.T) {
	path := storePath(t)
	if err := os.WriteFile(path, []byte("definitely not a job store"), 0o644); err != nil {
		t.Fatal(err)
	}
	q := New(okRunner, Options{StorePath: path})
	if _, ok, err := q.Load(); err == nil || ok {
		t.Fatalf("garbage loaded: ok=%v err=%v", ok, err)
	} else if !strings.Contains(err.Error(), path) {
		t.Fatalf("bad-magic error %q does not name the offending file %s", err, path)
	}
}

// TestStoreCanceledPersists: user cancellation is terminal and stays
// canceled across a restart — it must not resurrect as queued.
func TestStoreCanceledPersists(t *testing.T) {
	path := storePath(t)
	g := newGatedRunner()
	defer close(g.release)
	q1 := New(g.run, Options{Workers: 1, Depth: 8, StorePath: path})
	q1.Start()
	if _, err := q1.Submit(Spec{ID: "plug", Manuscripts: manuscripts(1, "")}); err != nil {
		t.Fatal(err)
	}
	<-g.started
	if _, err := q1.Submit(Spec{ID: "withdrawn", Manuscripts: manuscripts(1, "")}); err != nil {
		t.Fatal(err)
	}
	if _, err := q1.Cancel("withdrawn"); err != nil {
		t.Fatal(err)
	}
	stopQueue(t, q1)

	q2 := New(okRunner, Options{StorePath: path})
	if _, ok, err := q2.Load(); err != nil || !ok {
		t.Fatalf("load: %v ok=%v", err, ok)
	}
	job, err := q2.Get("withdrawn")
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateCanceled {
		t.Fatalf("state = %q, want canceled to stick", job.State)
	}
}

// TestStoreV1StillLoads: a version-1 file (written before priorities
// and callbacks existed) loads into a v2 queue — the new fields just
// default, so upgrading a deployment never drops its queue.
func TestStoreV1StillLoads(t *testing.T) {
	path := storePath(t)
	jobs := []StoredJob{{
		Spec:        Spec{ID: "old", Venue: "A", Manuscripts: manuscripts(2, "A")},
		Seq:         0,
		State:       StateQueued,
		SubmittedAt: time.Now().UTC(),
	}}
	raw, err := json.Marshal(storePayload{SavedAt: time.Now().UTC(), Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := envelope.Encode(f, storeMagic, 1, raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	q := New(okRunner, Options{StorePath: path})
	stats, ok, err := q.Load()
	if err != nil || !ok {
		t.Fatalf("v1 load: %v ok=%v", err, ok)
	}
	if stats.Resumed != 1 || stats.Dropped != 0 {
		t.Fatalf("restore stats = %+v", stats)
	}
	job, err := q.Get("old")
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateQueued || job.Priority != PriorityNormal || job.CallbackURL != "" {
		t.Fatalf("v1 job defaults = %+v", job)
	}
}

// TestStoreNoPathIsMemoryOnly: without a StorePath nothing touches
// disk and Load is a silent no-op.
func TestStoreNoPathIsMemoryOnly(t *testing.T) {
	q := New(okRunner, Options{})
	if _, ok, err := q.Load(); err != nil || ok {
		t.Fatalf("memory-only load: ok=%v err=%v", ok, err)
	}
	if err := q.save(); err != nil {
		t.Fatalf("memory-only save: %v", err)
	}
}

// TestStoreFailedJobRoundTrips: the error message of a failed job
// survives restart.
func TestStoreFailedJobRoundTrips(t *testing.T) {
	path := storePath(t)
	boom := func(ctx context.Context, spec Spec, onItem func(batch.Item)) (*batch.Summary, error) {
		return nil, errors.New("no engine today")
	}
	q1 := New(boom, Options{Workers: 1, StorePath: path})
	q1.Start()
	if _, err := q1.Submit(Spec{ID: "f", Manuscripts: manuscripts(1, "")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := q1.Wait(ctx, "f", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	stopQueue(t, q1)

	q2 := New(okRunner, Options{StorePath: path})
	if _, ok, err := q2.Load(); err != nil || !ok {
		t.Fatalf("load: %v ok=%v", err, ok)
	}
	job, err := q2.Get("f")
	if err != nil || job.State != StateFailed || job.Error != "no engine today" {
		t.Fatalf("restored failure = %+v, %v", job, err)
	}
}
