package jobs

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"minaret/internal/cluster"
)

// testClock is a settable time source for lease expiry without
// sleeping.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newLeasedStore(t *testing.T, dir, owner string, clock *testClock) *LeasedDirStore {
	t.Helper()
	s, err := NewLeasedDirStore(dir, LeasedDirStoreOptions{
		Owner:     owner,
		Lease:     cluster.LeaseOptions{TTL: 15 * time.Second, Clock: clock.Now},
		Heartbeat: -1, // tests drive Heartbeat() explicitly
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seedPartition writes one queued job into the directory through a
// short-lived store, released before the test's stores go near it.
func seedPartition(t *testing.T, dir, venue, id string, clock *testClock) {
	t.Helper()
	seed := newLeasedStore(t, dir, "seeder", clock)
	err := seed.Save(clock.Now(), []StoredJob{{
		Spec:  Spec{ID: id, Venue: venue, Manuscripts: manuscripts(1, venue)},
		State: StateQueued,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLeasedStorePartitioning: jobs land in per-venue partition files,
// each with its own lease, and a successor with the directory restores
// everything — the multi-file layout loses nothing the single file
// kept.
func TestLeasedStorePartitioning(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()

	q1 := New(okRunner, Options{Workers: 1, Store: newLeasedStore(t, dir, "shard-a", clock)})
	q1.Start()
	for _, venue := range []string{"Conf/2026:AI", "VLDB"} {
		if _, err := q1.Submit(Spec{ID: "job-" + venue, Venue: venue, Manuscripts: manuscripts(1, venue)}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range []string{"job-Conf/2026:AI", "job-VLDB"} {
		if job, err := q1.Wait(ctx, id, 10*time.Second); err != nil || job.State != StateDone {
			t.Fatalf("%s: %+v, %v", id, job, err)
		}
	}
	stopQueue(t, q1)

	// Two partition files, named invertibly.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var partitions []string
	for _, e := range entries {
		if v, ok := venueFromFile(e.Name()); ok {
			partitions = append(partitions, v)
		}
	}
	if len(partitions) != 2 {
		t.Fatalf("partitions = %v, want one per venue", partitions)
	}

	q2 := New(okRunner, Options{Store: newLeasedStore(t, dir, "shard-a", clock)})
	stats, ok, err := q2.Load()
	if err != nil || !ok {
		t.Fatalf("load: %v ok=%v", err, ok)
	}
	if stats.Finished != 2 {
		t.Fatalf("restore stats = %+v", stats)
	}
	if job, err := q2.Get("job-VLDB"); err != nil || job.State != StateDone || job.Result == nil {
		t.Fatalf("restored job = %+v, %v", job, err)
	}
}

// TestLeasedStoreExclusiveClaim: two live shards over one directory —
// the second shard's Load claims nothing the first already holds, so a
// queued job cannot run on both.
func TestLeasedStoreExclusiveClaim(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()

	seedPartition(t, dir, "V", "queued-1", clock)
	storeA := newLeasedStore(t, dir, "shard-a", clock)
	jobs, _, ok, err := storeA.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(jobs) != 1 {
		t.Fatalf("owner load = ok=%v jobs=%d", ok, len(jobs))
	}

	storeB := newLeasedStore(t, dir, "shard-b", clock)
	if jobs, _, ok, err := storeB.Load(); err != nil || ok || len(jobs) != 0 {
		t.Fatalf("peer load over a held partition = ok=%v jobs=%d err=%v, want nothing claimable", ok, len(jobs), err)
	}
	if got, err := storeB.Reclaim(); err != nil || len(got) != 0 {
		t.Fatalf("peer reclaim against a live holder = %d jobs, %v", len(got), err)
	}
}

// TestLeasedStoreKillRestartReclaim is the cluster durability story:
// shard-a dies hard (SIGKILL — no Stop, no lease release) with a job
// queued; once its lease expires, shard-b's Reclaim adopts the job and
// runs it to completion, and the dead shard's zombie incarnation is
// fenced from overwriting the survivor's partition.
func TestLeasedStoreKillRestartReclaim(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()

	g := newGatedRunner()
	storeA := newLeasedStore(t, dir, "shard-a", clock)
	qA := New(g.run, Options{Workers: 1, Store: storeA})
	qA.Start()
	if _, err := qA.Submit(Spec{ID: "doomed", Venue: "V", Manuscripts: manuscripts(2, "V")}); err != nil {
		t.Fatal(err)
	}
	<-g.started // running on shard-a; the Submit-time save recorded it queued
	// SIGKILL shard-a: abandon the queue without Stop — its venue lease
	// stays on disk, unreleased, and no further saves happen (the gate
	// stays shut until cleanup, like a process frozen mid-run). The
	// cleanup thaws the zombie and waits for it to exit before the
	// TempDir cleanup removes the directory it would still write into;
	// its fenced final save fails with ErrLeaseLost by design.
	t.Cleanup(func() {
		close(g.release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := qA.Stop(ctx); err != nil && !errors.Is(err, cluster.ErrLeaseLost) {
			t.Errorf("zombie stop: %v", err)
		}
	})

	storeB := newLeasedStore(t, dir, "shard-b", clock)
	qB := New(okRunner, Options{Workers: 1, Store: storeB})
	// While shard-a's lease is still valid, the survivor must not steal
	// the partition.
	if _, ok, err := qB.Load(); err != nil || ok {
		t.Fatalf("load against a live lease = ok=%v err=%v", ok, err)
	}
	if n, err := qB.Reclaim(); err != nil || n != 0 {
		t.Fatalf("premature reclaim = %d, %v", n, err)
	}

	// The heartbeat stops with the process; past the TTL the lease is
	// dead and the partition claimable.
	clock.Advance(16 * time.Second)
	n, err := qB.Reclaim()
	if err != nil {
		t.Fatalf("reclaim: %v", err)
	}
	if n != 1 {
		t.Fatalf("reclaimed %d jobs, want 1", n)
	}
	qB.Start()
	defer stopQueue(t, qB)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	job, err := qB.Wait(ctx, "doomed", 10*time.Second)
	if err != nil || job.State != StateDone || job.Result == nil || job.Result.Succeeded != 2 {
		t.Fatalf("survivor's run = %+v, %v", job, err)
	}

	// The zombie wakes up and tries to persist its stale view: the
	// epoch fence rejects the write and the survivor's state stands.
	err = storeA.Save(clock.Now(), []StoredJob{{
		Spec:  Spec{ID: "doomed", Venue: "V", Manuscripts: manuscripts(2, "V")},
		State: StateQueued,
	}})
	if !errors.Is(err, cluster.ErrLeaseLost) {
		t.Fatalf("zombie save = %v, want ErrLeaseLost", err)
	}
	jobs, _, ok, err := (&FileStore{Path: storeB.jobsPath("V")}).Load()
	if err != nil || !ok {
		t.Fatalf("partition readback: ok=%v err=%v", ok, err)
	}
	if len(jobs) != 1 || jobs[0].State != StateDone {
		t.Fatalf("partition after zombie write attempt = %+v, want the survivor's done job", jobs)
	}
}

// TestLeasedStoreHeartbeatKeepsOwnership: renewals extend the lease
// past its original deadline; without them the partition would have
// been up for grabs.
func TestLeasedStoreHeartbeatKeepsOwnership(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()

	seedPartition(t, dir, "V", "j", clock)
	storeA := newLeasedStore(t, dir, "shard-a", clock)
	if _, _, ok, err := storeA.Load(); err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	storeB := newLeasedStore(t, dir, "shard-b", clock)
	for i := 0; i < 4; i++ {
		clock.Advance(10 * time.Second) // each step is within TTL of the last renewal
		storeA.Heartbeat()
		if jobs, err := storeB.Reclaim(); err != nil || len(jobs) != 0 {
			t.Fatalf("step %d: heartbeated partition reclaimed by peer (%d jobs, %v)", i, len(jobs), err)
		}
	}
}

// TestLeasedStoreCloseFreesPartitions: an orderly shutdown releases
// the venue leases so a successor claims them immediately — no TTL of
// downtime after a clean stop.
func TestLeasedStoreCloseFreesPartitions(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()

	qA := New(okRunner, Options{Workers: 1, Store: newLeasedStore(t, dir, "shard-a", clock)})
	qA.Start()
	if _, err := qA.Submit(Spec{ID: "j", Venue: "V", Manuscripts: manuscripts(1, "V")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if job, err := qA.Wait(ctx, "j", 10*time.Second); err != nil || !job.State.Terminal() {
		t.Fatalf("job = %+v, %v", job, err)
	}
	stopQueue(t, qA) // Stop saves, then closes the store, releasing leases

	// No clock advance: the successor claims at the same instant.
	qB := New(okRunner, Options{Store: newLeasedStore(t, dir, "shard-b", clock)})
	stats, ok, err := qB.Load()
	if err != nil || !ok || stats.Finished != 1 {
		t.Fatalf("successor load right after close = ok=%v stats=%+v err=%v", ok, stats, err)
	}
}

// TestVenueFileRoundTrip: arbitrary venue strings survive the
// filesystem-safe encoding.
func TestVenueFileRoundTrip(t *testing.T) {
	for _, venue := range []string{"", "VLDB", "Conf/2026:AI", "spaces and ☃"} {
		name := venueFile(venue)
		if filepath.Base(name) != name {
			t.Fatalf("venue %q maps to path-traversing name %q", venue, name)
		}
		got, ok := venueFromFile(name)
		if !ok || got != venue {
			t.Fatalf("venueFromFile(venueFile(%q)) = %q, %v", venue, got, ok)
		}
	}
	if _, ok := venueFromFile("venue-zz.jobs"); ok {
		t.Fatal("non-hex partition name accepted")
	}
	if _, ok := venueFromFile("venue-41.lease"); ok {
		t.Fatal("lease file mistaken for a partition")
	}
}
