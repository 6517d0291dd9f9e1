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
// the store, so a crash right after cannot run the job a second time.
func TestWaitSeesOnlyPersistedTerminalStates(t *testing.T) {
	st := &slowStore{}
	q := New(okRunner, Options{Workers: 2, Depth: 64, Store: st})
	q.Start()
	defer stopQueue(t, q)

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		j, err := q.Submit(Spec{Manuscripts: manuscripts(1, fmt.Sprintf("v%d", i%3))})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			job, err := q.Wait(ctx, id, 10*time.Second)
			if err != nil || !job.State.Terminal() {
				t.Errorf("wait %s = %s, %v", id, job.State, err)
				return
			}
			if got := st.stateOf(id); got != job.State {
				t.Errorf("Wait saw %s %s while the store holds %q", id, job.State, got)
			}
		}(j.ID)
	}
	wg.Wait()
}
