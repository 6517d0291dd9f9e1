package jobs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// slowStore is an in-memory Store whose Save takes a while, widening the
// window in which a queue that announced a transition before persisting
// it would let a waiter see a state the store does not hold yet.
type slowStore struct {
	mu    sync.Mutex
	saved map[string]State
}

func (s *slowStore) Load() ([]StoredJob, time.Time, bool, error) {
	return nil, time.Time{}, false, nil
}

func (s *slowStore) Save(_ time.Time, jobs []StoredJob) error {
	time.Sleep(2 * time.Millisecond)
	saved := make(map[string]State, len(jobs))
	for _, j := range jobs {
		saved[j.Spec.ID] = j.State
	}
	s.mu.Lock()
	s.saved = saved
	s.mu.Unlock()
	return nil
}

func (s *slowStore) Close() error { return nil }

func (s *slowStore) stateOf(id string) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saved[id]
}

// TestWaitSeesOnlyPersistedTerminalStates is the persist-then-publish
// invariant: any terminal state a client sees through Wait is already in
// the store, so a crash right after cannot run the job a second time —
// nor resurrect a job canceled while it was queued.
func TestWaitSeesOnlyPersistedTerminalStates(t *testing.T) {
	var wg sync.WaitGroup
	waitPersisted := func(q *Queue, st *slowStore, id string, want State) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			job, err := q.Wait(ctx, id, 10*time.Second)
			if err != nil || job.State != want {
				t.Errorf("wait %s = %s, %v; want %s", id, job.State, err, want)
				return
			}
			if got := st.stateOf(id); got != job.State {
				t.Errorf("Wait saw %s %s while the store holds %q", id, job.State, got)
			}
		}()
	}

	// Run completion.
	st := &slowStore{}
	q := New(okRunner, Options{Workers: 2, Depth: 64, Store: st})
	q.Start()
	defer stopQueue(t, q)
	for i := 0; i < 24; i++ {
		j, err := q.Submit(Spec{Manuscripts: manuscripts(1, fmt.Sprintf("v%d", i%3))})
		if err != nil {
			t.Fatal(err)
		}
		waitPersisted(q, st, j.ID, StateDone)
	}
	wg.Wait()

	// Cancellation of queued jobs, held behind a gated one.
	g := newGatedRunner()
	cst := &slowStore{}
	cq := New(g.run, Options{Workers: 1, Depth: 64, Store: cst})
	cq.Start()
	defer stopQueue(t, cq)
	defer close(g.release)
	if _, err := cq.Submit(Spec{ID: "blocker", Manuscripts: manuscripts(1, "v")}); err != nil {
		t.Fatal(err)
	}
	<-g.started
	var ids []string
	for i := 0; i < 12; i++ {
		j, err := cq.Submit(Spec{Manuscripts: manuscripts(1, fmt.Sprintf("v%d", i%3))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		waitPersisted(cq, cst, j.ID, StateCanceled)
	}
	for _, id := range ids {
		if job, err := cq.Cancel(id); err != nil || job.State != StateCanceled {
			t.Fatalf("cancel %s = %s, %v", id, job.State, err)
		}
	}
	wg.Wait()
}
