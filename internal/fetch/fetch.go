// Package fetch is the HTTP substrate of the extraction layer: a client
// with response caching (TTL + LRU), per-host politeness rate limiting,
// and retry with exponential backoff. MINARET extracts everything
// on-the-fly from scholarly websites; this package makes that both
// polite (rate limits) and fast enough (cache, concurrency) while
// remaining resilient to transient failures (retries).
package fetch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// NoRetry is a sentinel for Options.MaxRetries: every Get makes exactly
// one attempt. (MaxRetries: 0 selects the default of 3; any negative
// value behaves like NoRetry.)
const NoRetry = -1

// Options configures a Client. Zero values select documented defaults.
type Options struct {
	// Timeout bounds a single HTTP attempt. Default 10s.
	Timeout time.Duration
	// MaxRetries is the number of re-attempts after a retryable failure
	// (network error, HTTP 429/5xx). Zero-value semantics: 0 selects the
	// default of 3 (a zero Options must behave sensibly); to disable
	// retries entirely pass any negative value (the NoRetry sentinel),
	// which is normalized to 0 re-attempts.
	MaxRetries int
	// BaseBackoff is the first retry delay; it doubles per attempt with
	// ±25% jitter. Default 50ms.
	BaseBackoff time.Duration
	// CacheTTL is how long a fetched body stays fresh. The paper stresses
	// up-to-date extraction, so the default is short: 5 minutes.
	CacheTTL time.Duration
	// CacheSize is the maximum number of cached responses. Default 4096.
	CacheSize int
	// PerHostRate is the sustained request rate allowed per host, in
	// requests/second. Default 50. Zero or negative after defaulting
	// disables limiting.
	PerHostRate float64
	// Burst is the token-bucket burst per host. Default 10.
	Burst int
	// Transport overrides the HTTP transport (tests inject failures
	// here). Default: http.DefaultTransport with an idle pool deep
	// enough for the extraction fan-out (see idleConnsPerHost).
	Transport http.RoundTripper
	// DisableCache turns caching off entirely.
	DisableCache bool
	// now and sleep are test seams.
	now   func() time.Time
	sleep func(context.Context, time.Duration) error
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 10 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0 // NoRetry sentinel: single attempt, no re-tries
	}
	if o.BaseBackoff == 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.CacheTTL == 0 {
		o.CacheTTL = 5 * time.Minute
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.PerHostRate == 0 {
		o.PerHostRate = 50
	}
	if o.Burst == 0 {
		o.Burst = 10
	}
	if o.Transport == nil {
		o.Transport = defaultTransport
	}
	if o.now == nil {
		o.now = time.Now
	}
	if o.sleep == nil {
		o.sleep = sleepCtx
	}
	return o
}

// idleConnsPerHost sizes the default transport's idle pool to the
// extraction fan-out: 8 candidate workers each assembling up to 6
// sources at once, which all share one host when the sources are served
// together. http.DefaultTransport keeps 2 idle connections per host, so
// most requests of a burst would dial anew.
const idleConnsPerHost = 8 * 6

// defaultTransport is shared by every Client without a Transport, as
// http.DefaultTransport is, so connections outlive any one Client.
var defaultTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = idleConnsPerHost
	return t
}()

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Stats are cumulative client counters, safe to read concurrently.
type Stats struct {
	Requests  int64 // logical Get calls
	CacheHits int64
	HTTPCalls int64 // physical attempts (includes retries)
	Retries   int64
	Failures  int64 // Gets that ultimately failed
	RateWaits int64 // times a request waited on the limiter
	// FlightShares counts Gets served by piggybacking on an identical
	// in-flight request (singleflight hits).
	FlightShares int64
	BytesFetched int64
}

// StatusError reports a non-2xx terminal response.
type StatusError struct {
	URL        string
	StatusCode int
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("fetch %s: unexpected status %d", e.URL, e.StatusCode)
}

// IsNotFound reports whether err is a 404 StatusError; sources use it to
// distinguish "scholar has no profile here" from real failures.
func IsNotFound(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.StatusCode == http.StatusNotFound
}

// Client is a caching, rate-limited, retrying HTTP fetcher.
type Client struct {
	opts  Options
	http  *http.Client
	cache *lruCache

	mu       sync.Mutex
	limiters map[string]*tokenBucket
	rng      *rand.Rand

	// flightMu guards inflight: concurrent Gets for the same URL share
	// one HTTP round trip (singleflight), which matters during
	// extraction fan-out where enrichment and interest search race to
	// the same profile pages.
	flightMu sync.Mutex
	inflight map[string]*flightCall

	stats Stats
}

// flightCall is one in-progress shared fetch.
type flightCall struct {
	done chan struct{}
	body []byte
	err  error
}

// New builds a Client from options.
func New(opts Options) *Client {
	o := opts.withDefaults()
	c := &Client{
		opts:     o,
		http:     &http.Client{Transport: o.Transport, Timeout: o.Timeout},
		limiters: make(map[string]*tokenBucket),
		inflight: make(map[string]*flightCall),
		rng:      rand.New(rand.NewSource(1)),
	}
	if !o.DisableCache {
		c.cache = newLRUCache(o.CacheSize, o.CacheTTL, o.now)
	}
	return c
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	return Stats{
		Requests:     atomic.LoadInt64(&c.stats.Requests),
		CacheHits:    atomic.LoadInt64(&c.stats.CacheHits),
		HTTPCalls:    atomic.LoadInt64(&c.stats.HTTPCalls),
		Retries:      atomic.LoadInt64(&c.stats.Retries),
		Failures:     atomic.LoadInt64(&c.stats.Failures),
		RateWaits:    atomic.LoadInt64(&c.stats.RateWaits),
		FlightShares: atomic.LoadInt64(&c.stats.FlightShares),
		BytesFetched: atomic.LoadInt64(&c.stats.BytesFetched),
	}
}

// Get fetches the URL, serving from cache when fresh. The returned slice
// is shared with the cache and must not be modified.
func (c *Client) Get(ctx context.Context, rawURL string) ([]byte, error) {
	atomic.AddInt64(&c.stats.Requests, 1)
	if c.cache != nil {
		if body, ok := c.cache.get(rawURL); ok {
			atomic.AddInt64(&c.stats.CacheHits, 1)
			return body, nil
		}
	}
	body, err := c.getShared(ctx, rawURL)
	if err != nil {
		atomic.AddInt64(&c.stats.Failures, 1)
		return nil, err
	}
	return body, nil
}

// getShared coalesces concurrent fetches of the same URL into one HTTP
// round trip. The winner fetches and populates the cache; waiters share
// its result. Errors are not cached: the next caller retries fresh.
func (c *Client) getShared(ctx context.Context, rawURL string) ([]byte, error) {
	c.flightMu.Lock()
	if call, ok := c.inflight[rawURL]; ok {
		c.flightMu.Unlock()
		atomic.AddInt64(&c.stats.FlightShares, 1)
		select {
		case <-call.done:
			return call.body, call.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	call := &flightCall{done: make(chan struct{})}
	c.inflight[rawURL] = call
	c.flightMu.Unlock()

	call.body, call.err = c.getUncached(ctx, rawURL)
	if call.err == nil && c.cache != nil {
		c.cache.put(rawURL, call.body)
	}
	c.flightMu.Lock()
	delete(c.inflight, rawURL)
	c.flightMu.Unlock()
	close(call.done)
	return call.body, call.err
}

func (c *Client) getUncached(ctx context.Context, rawURL string) ([]byte, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, fmt.Errorf("fetch: bad url %q: %w", rawURL, err)
	}
	backoff := c.opts.BaseBackoff
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			atomic.AddInt64(&c.stats.Retries, 1)
			if err := c.opts.sleep(ctx, c.jitter(backoff)); err != nil {
				return nil, err
			}
			backoff *= 2
		}
		if err := c.waitRate(ctx, u.Host); err != nil {
			return nil, err
		}
		body, retryable, err := c.attempt(ctx, rawURL)
		if err == nil {
			return body, nil
		}
		lastErr = err
		if !retryable {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("fetch: %d attempts failed: %w", c.opts.MaxRetries+1, lastErr)
}

// attempt performs one HTTP round trip. The bool reports retryability.
func (c *Client) attempt(ctx context.Context, rawURL string) ([]byte, bool, error) {
	atomic.AddInt64(&c.stats.HTTPCalls, 1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("User-Agent", "minaret/1.0 (reviewer recommendation; polite crawler)")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, true, err // network errors are retryable
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, true, err
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		atomic.AddInt64(&c.stats.BytesFetched, int64(len(body)))
		return body, false, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		return nil, true, &StatusError{URL: rawURL, StatusCode: resp.StatusCode}
	default:
		return nil, false, &StatusError{URL: rawURL, StatusCode: resp.StatusCode}
	}
}

func (c *Client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	f := 0.75 + 0.5*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

func (c *Client) waitRate(ctx context.Context, host string) error {
	if c.opts.PerHostRate <= 0 {
		return nil
	}
	c.mu.Lock()
	tb, ok := c.limiters[host]
	if !ok {
		tb = newTokenBucket(c.opts.PerHostRate, float64(c.opts.Burst), c.opts.now)
		c.limiters[host] = tb
	}
	c.mu.Unlock()
	wait := tb.reserve()
	if wait > 0 {
		atomic.AddInt64(&c.stats.RateWaits, 1)
		return c.opts.sleep(ctx, wait)
	}
	return nil
}

// InvalidateCache drops every cached response; editors use the
// corresponding API endpoint to force fresh extraction.
func (c *Client) InvalidateCache() {
	if c.cache != nil {
		c.cache.clear()
	}
}

// InvalidateMatching drops every cached response whose URL satisfies
// pred and returns how many were dropped. The change-feed consumer uses
// it to evict exactly the pages a corpus delta staled (a scholar's
// profile URLs carry their site-local ids; interest searches carry the
// keyword) while every other cached body stays warm.
func (c *Client) InvalidateMatching(pred func(url string) bool) int {
	if c.cache == nil {
		return 0
	}
	return c.cache.deleteFunc(pred)
}

// tokenBucket is a standard token-bucket limiter. reserve returns how
// long the caller must sleep before proceeding (0 = go now); tokens are
// debited immediately so concurrent callers queue fairly.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate, burst float64, now func() time.Time) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now(), now: now}
}

func (tb *tokenBucket) reserve() time.Duration {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.now()
	elapsed := now.Sub(tb.last).Seconds()
	tb.last = now
	tb.tokens += elapsed * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.tokens--
	if tb.tokens >= 0 {
		return 0
	}
	return time.Duration(-tb.tokens / tb.rate * float64(time.Second))
}
