package fetch

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noSleep makes backoff instantaneous in tests while still honouring
// context cancellation.
func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func newTestClient(t *testing.T, handler http.Handler, opts Options) (*Client, string) {
	t.Helper()
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	opts.sleep = noSleep
	return New(opts), srv.URL
}

func TestGetSuccess(t *testing.T) {
	c, base := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "hello")
	}), Options{})
	body, err := c.Get(context.Background(), base+"/x")
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "hello" {
		t.Fatalf("body = %q", body)
	}
	st := c.Stats()
	if st.Requests != 1 || st.HTTPCalls != 1 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGetCaches(t *testing.T) {
	var calls int64
	c, base := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&calls, 1)
		fmt.Fprint(w, "v")
	}), Options{})
	for i := 0; i < 5; i++ {
		if _, err := c.Get(context.Background(), base+"/same"); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("server saw %d calls, want 1", calls)
	}
	if st := c.Stats(); st.CacheHits != 4 {
		t.Fatalf("cache hits = %d, want 4", st.CacheHits)
	}
}

func TestGetCacheTTLExpiry(t *testing.T) {
	var calls int64
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&calls, 1)
		fmt.Fprint(w, "v")
	}))
	defer srv.Close()
	c := New(Options{CacheTTL: time.Minute, now: clock, sleep: noSleep})
	ctx := context.Background()
	c.Get(ctx, srv.URL)
	c.Get(ctx, srv.URL)
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	c.Get(ctx, srv.URL)
	if calls != 2 {
		t.Fatalf("server saw %d calls, want 2 (expiry refetch)", calls)
	}
}

func TestGetDisableCache(t *testing.T) {
	var calls int64
	c, base := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&calls, 1)
	}), Options{DisableCache: true})
	ctx := context.Background()
	c.Get(ctx, base)
	c.Get(ctx, base)
	if calls != 2 {
		t.Fatalf("cache disabled but server saw %d calls", calls)
	}
}

func TestRetryOn500ThenSuccess(t *testing.T) {
	var calls int64
	c, base := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt64(&calls, 1) < 3 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "recovered")
	}), Options{})
	body, err := c.Get(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "recovered" {
		t.Fatalf("body = %q", body)
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
}

func TestNoRetrySentinel(t *testing.T) {
	var calls int64
	c, base := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&calls, 1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}), Options{MaxRetries: NoRetry})
	if _, err := c.Get(context.Background(), base); err == nil {
		t.Fatal("want error from single failing attempt")
	}
	if calls != 1 {
		t.Fatalf("server saw %d calls, want exactly 1 (retries disabled)", calls)
	}
	if st := c.Stats(); st.Retries != 0 || st.HTTPCalls != 1 {
		t.Fatalf("stats = %+v, want no retries", st)
	}
	// Any negative value disables retrying, not just -1.
	if got := (Options{MaxRetries: -7}).withDefaults().MaxRetries; got != 0 {
		t.Fatalf("MaxRetries(-7) normalized to %d, want 0", got)
	}
	// The documented zero-value default is unchanged.
	if got := (Options{}).withDefaults().MaxRetries; got != 3 {
		t.Fatalf("MaxRetries(0) defaulted to %d, want 3", got)
	}
}

func TestRetryExhaustion(t *testing.T) {
	c, base := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}), Options{MaxRetries: 2})
	_, err := c.Get(context.Background(), base)
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != 500 {
		t.Fatalf("err = %v, want wrapped StatusError 500", err)
	}
	if st := c.Stats(); st.HTTPCalls != 3 || st.Failures != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoRetryOn404(t *testing.T) {
	var calls int64
	c, base := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&calls, 1)
		http.NotFound(w, r)
	}), Options{})
	_, err := c.Get(context.Background(), base)
	if !IsNotFound(err) {
		t.Fatalf("err = %v, want 404 StatusError", err)
	}
	if calls != 1 {
		t.Fatalf("404 retried: %d calls", calls)
	}
}

func TestRetryOn429(t *testing.T) {
	var calls int64
	c, base := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt64(&calls, 1) == 1 {
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, "ok")
	}), Options{})
	if _, err := c.Get(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestContextCancellation(t *testing.T) {
	c, base := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}), Options{MaxRetries: 100})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, base); err == nil {
		t.Fatal("cancelled context should fail")
	}
}

func TestBadURL(t *testing.T) {
	c := New(Options{sleep: noSleep})
	if _, err := c.Get(context.Background(), "http://bad url/%"); err == nil {
		t.Fatal("bad URL accepted")
	}
}

func TestInvalidateCache(t *testing.T) {
	var calls int64
	c, base := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&calls, 1)
	}), Options{})
	ctx := context.Background()
	c.Get(ctx, base)
	c.InvalidateCache()
	c.Get(ctx, base)
	if calls != 2 {
		t.Fatalf("calls = %d after invalidation, want 2", calls)
	}
}

func TestLRUEviction(t *testing.T) {
	now := time.Unix(0, 0)
	cache := newLRUCache(2, time.Hour, func() time.Time { return now })
	cache.put("a", []byte("1"))
	cache.put("b", []byte("2"))
	cache.get("a") // a becomes MRU
	cache.put("c", []byte("3"))
	if _, ok := cache.get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := cache.get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := cache.get("c"); !ok {
		t.Fatal("c should be present")
	}
	if cache.len() != 2 {
		t.Fatalf("len = %d", cache.len())
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	now := time.Unix(0, 0)
	cache := newLRUCache(2, time.Hour, func() time.Time { return now })
	cache.put("a", []byte("1"))
	cache.put("a", []byte("2"))
	if cache.len() != 1 {
		t.Fatalf("len = %d after double put", cache.len())
	}
	if b, _ := cache.get("a"); string(b) != "2" {
		t.Fatalf("value = %q", b)
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	tb := newTokenBucket(10, 2, clock) // 10/s, burst 2
	if w := tb.reserve(); w != 0 {
		t.Fatalf("first reserve waited %v", w)
	}
	if w := tb.reserve(); w != 0 {
		t.Fatalf("second reserve waited %v", w)
	}
	w := tb.reserve()
	if w <= 0 {
		t.Fatal("third reserve should wait")
	}
	if w > 150*time.Millisecond {
		t.Fatalf("wait %v too long for rate 10/s", w)
	}
	// Advance time: tokens refill.
	now = now.Add(time.Second)
	if w := tb.reserve(); w != 0 {
		t.Fatalf("post-refill reserve waited %v", w)
	}
}

func TestPoolRunsAll(t *testing.T) {
	var n int64
	tasks := make([]Task, 50)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) error {
			atomic.AddInt64(&n, 1)
			return nil
		}
	}
	errs := NewPool(8).Run(context.Background(), tasks)
	if n != 50 {
		t.Fatalf("ran %d tasks", n)
	}
	if CountErrors(errs) != 0 {
		t.Fatalf("errors: %v", FirstError(errs))
	}
}

func TestPoolCollectsErrors(t *testing.T) {
	boom := errors.New("boom")
	tasks := []Task{
		func(ctx context.Context) error { return nil },
		func(ctx context.Context) error { return boom },
		func(ctx context.Context) error { return nil },
	}
	errs := NewPool(2).Run(context.Background(), tasks)
	if errs[0] != nil || errs[2] != nil {
		t.Fatal("successful tasks reported errors")
	}
	if !errors.Is(errs[1], boom) {
		t.Fatalf("errs[1] = %v", errs[1])
	}
	if FirstError(errs) != boom || CountErrors(errs) != 1 {
		t.Fatal("error helpers wrong")
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	var cur, peak int64
	tasks := make([]Task, 40)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) error {
			c := atomic.AddInt64(&cur, 1)
			for {
				p := atomic.LoadInt64(&peak)
				if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt64(&cur, -1)
			return nil
		}
	}
	NewPool(4).Run(context.Background(), tasks)
	if peak > 4 {
		t.Fatalf("peak concurrency %d > 4", peak)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	in := []int{5, 3, 9, 1}
	out, errs := Map(context.Background(), 3, in, func(ctx context.Context, x int) (int, error) {
		return x * 2, nil
	})
	if FirstError(errs) != nil {
		t.Fatal(FirstError(errs))
	}
	for i, x := range in {
		if out[i] != x*2 {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

func TestPoolCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	tasks := make([]Task, 10)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) error {
			atomic.AddInt64(&ran, 1)
			return nil
		}
	}
	errs := NewPool(2).Run(ctx, tasks)
	if CountErrors(errs) != 10 {
		t.Fatalf("cancelled run reported %d errors, want 10", CountErrors(errs))
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	var calls int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt64(&calls, 1)
		<-release
		fmt.Fprint(w, "shared")
	}))
	defer srv.Close()
	c := New(Options{sleep: noSleep})
	const n = 16
	var wg sync.WaitGroup
	results := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := c.Get(context.Background(), srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = string(body)
		}(i)
	}
	// Give the goroutines time to pile up behind the first request.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("server saw %d calls, want 1 (singleflight)", calls)
	}
	for i, r := range results {
		if r != "shared" {
			t.Fatalf("result[%d] = %q", i, r)
		}
	}
	if st := c.Stats(); st.FlightShares != n-1 {
		t.Fatalf("flight shares = %d, want %d", st.FlightShares, n-1)
	}
}

func TestSingleflightErrorsNotCached(t *testing.T) {
	var calls int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt64(&calls, 1) == 1 {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	c := New(Options{sleep: noSleep})
	if _, err := c.Get(context.Background(), srv.URL); !IsNotFound(err) {
		t.Fatalf("first get err = %v", err)
	}
	// The failure must not be cached or shared with later callers.
	body, err := c.Get(context.Background(), srv.URL)
	if err != nil || string(body) != "ok" {
		t.Fatalf("second get = %q, %v", body, err)
	}
}

func TestConcurrentGets(t *testing.T) {
	c, base := newTestClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, r.URL.Path)
	}), Options{})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := c.Get(context.Background(), fmt.Sprintf("%s/p%d", base, i%4))
			if err != nil {
				t.Error(err)
				return
			}
			if want := fmt.Sprintf("/p%d", i%4); string(body) != want {
				t.Errorf("body = %q, want %q", body, want)
			}
		}(i)
	}
	wg.Wait()
}

// TestFanOutReusesConnections: repeated bursts of concurrent fetches as
// wide as the extraction fan-out reuse pooled connections instead of
// dialing anew for most requests of every burst.
func TestFanOutReusesConnections(t *testing.T) {
	var newConns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond) // keep a burst's requests in flight together
		fmt.Fprint(w, r.URL.Path)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			newConns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	c := New(Options{DisableCache: true, PerHostRate: -1})

	const width, bursts = 24, 8
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func(b, i int) {
				defer wg.Done()
				if _, err := c.Get(context.Background(), fmt.Sprintf("%s/%d/%d", srv.URL, b, i)); err != nil {
					t.Error(err)
				}
			}(b, i)
		}
		wg.Wait()
	}
	// Dialing is bounded by the widest burst (plus the odd dial that
	// loses its race to a freed connection), not by bursts × width.
	if n := newConns.Load(); n > 2*width {
		t.Fatalf("%d new connections for %d bursts of %d concurrent fetches, want at most %d",
			n, bursts, width, 2*width)
	}
}
