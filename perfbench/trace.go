package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minaret/internal/jobs"
	"minaret/internal/sources"
)

// The traced run times calls into each layer's public surface from
// outside the program: the client's requests, the source clients'
// calls, the job store's saves and loads, and the recorded web's
// serving. A nil *tracer records nothing, so untraced runs pay only a
// nil check.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a client request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// spanStats is one span name's aggregate.
type spanStats struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// finish assigns parents and derives self times. Client request spans
// (names starting "client.") are the roots. There is one client and it
// waits for each answer, so a call belongs to the request whose
// interval contains its start; calls made outside any request (set-up,
// the end-of-run store reload) stay roots. A root's self time is its
// duration less the union of its children's intervals; a call has no
// children, so its self time is its duration.
func (t *tracer) finish() ([]span, map[string]spanStats) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var roots []int
	for i := range spans {
		spans[i].ID = i
		spans[i].Parent = -1
		if strings.HasPrefix(spans[i].Name, "client.") {
			roots = append(roots, i)
		}
	}
	children := map[int][]int{}
	for i := range spans {
		if strings.HasPrefix(spans[i].Name, "client.") {
			continue
		}
		// The last root starting at or before this span.
		k := sort.Search(len(roots), func(k int) bool { return spans[roots[k]].Start > spans[i].Start }) - 1
		if k >= 0 && spans[i].Start <= spans[roots[k]].End {
			spans[i].Parent = roots[k]
			children[roots[k]] = append(children[roots[k]], i)
		}
	}
	agg := map[string]spanStats{}
	for i, s := range spans {
		dur := s.End - s.Start
		self := dur
		if kids := children[i]; len(kids) > 0 {
			self -= covered(spans, kids, s.Start, s.End)
		}
		a := agg[s.Name]
		a.Count++
		a.TotalMS += float64(dur) / 1e6
		a.SelfMS += float64(self) / 1e6
		agg[s.Name] = a
	}
	return spans, agg
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi]. kids are in start order.
func covered(spans []span, kids []int, lo, hi int64) int64 {
	var total, curLo, curHi int64
	open := false
	for _, k := range kids {
		s, e := max(spans[k].Start, lo), min(spans[k].End, hi)
		if e <= s {
			continue
		}
		if open && s <= curHi {
			curHi = max(curHi, e)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = s, e, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores the spans and their per-name aggregates as JSON.
func (t *tracer) write(path string) (map[string]spanStats, error) {
	spans, agg := t.finish()
	f, err := os.Create(path)
	if err != nil {
		return agg, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans   []span               `json:"spans"`
		Summary map[string]spanStats `json:"summary"`
	}{spans, agg}); err != nil {
		f.Close()
		return agg, err
	}
	return agg, f.Close()
}

// siteCalls counts one source site's wrapped calls.
type siteCalls struct {
	calls  atomic.Int64
	busyNS atomic.Int64
}

// tracedClient wraps a source client and times each call.
type tracedClient struct {
	inner  sources.Client
	tracer *tracer
	stats  *siteCalls
}

func (c *tracedClient) done(kind string, start time.Time) {
	end := time.Now()
	c.stats.calls.Add(1)
	c.stats.busyNS.Add(int64(end.Sub(start)))
	c.tracer.record("sources."+c.inner.Source()+"."+kind, start, end)
}

func (c *tracedClient) Source() string { return c.inner.Source() }

func (c *tracedClient) SearchAuthor(ctx context.Context, name string) ([]sources.Hit, error) {
	defer c.done("SearchAuthor", time.Now())
	return c.inner.SearchAuthor(ctx, name)
}

func (c *tracedClient) Profile(ctx context.Context, siteID string) (*sources.Record, error) {
	defer c.done("Profile", time.Now())
	return c.inner.Profile(ctx, siteID)
}

// tracedSearcher is a tracedClient over a source that also searches by
// interest, so the wrapped registry keeps the same capabilities.
type tracedSearcher struct {
	tracedClient
	searcher sources.InterestSearcher
}

func (c *tracedSearcher) SearchInterest(ctx context.Context, topic string) ([]sources.Hit, error) {
	defer c.done("SearchInterest", time.Now())
	return c.searcher.SearchInterest(ctx, topic)
}

// traceRegistry wraps every client of r, keeping registration order.
func traceRegistry(r *sources.Registry, tr *tracer) (*sources.Registry, map[string]*siteCalls) {
	stats := map[string]*siteCalls{}
	var wrapped []sources.Client
	for _, c := range r.All() {
		st := &siteCalls{}
		stats[c.Source()] = st
		tc := tracedClient{inner: c, tracer: tr, stats: st}
		if is, ok := c.(sources.InterestSearcher); ok {
			wrapped = append(wrapped, &tracedSearcher{tracedClient: tc, searcher: is})
		} else {
			wrapped = append(wrapped, &tc)
		}
	}
	return sources.NewRegistry(wrapped...), stats
}

// countingStore wraps the job queue's FileStore: it counts and times
// saves and the bytes each one wrote (the size of the file it leaves).
// The queue reports a failed save through its Logf.
type countingStore struct {
	jobs.FileStore
	tracer *tracer

	saves  atomic.Int64
	bytes  atomic.Int64
	saveNS atomic.Int64
}

func (s *countingStore) Save(savedAt time.Time, js []jobs.StoredJob) error {
	start := time.Now()
	err := s.FileStore.Save(savedAt, js)
	end := time.Now()
	s.saves.Add(1)
	s.saveNS.Add(int64(end.Sub(start)))
	s.tracer.record("jobs.store.save", start, end)
	if err != nil {
		return err
	}
	fi, err := os.Stat(s.Path)
	if err != nil {
		return err
	}
	s.bytes.Add(fi.Size())
	return nil
}

// reset drops the spans recorded so far, so the trace holds only the
// timed part of the run.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}
