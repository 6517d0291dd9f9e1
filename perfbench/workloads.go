package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"minaret/internal/batch"
	"minaret/internal/cache"
	"minaret/internal/core"
	"minaret/internal/fetch"
	"minaret/internal/httpapi"
	"minaret/internal/jobs"

	"minaret/perfbench/check"
)

// A workload drives the API for about the given time, in whole rounds,
// recording each operation in m and each slate in chk. It returns the
// correctness failures it saw; an error aborts the run.
type workloadFunc func(s *stack, m *meter, chk *check.Checker, ref []string, d time.Duration) ([]string, error)

var workloads = map[string]workloadFunc{
	"editor-cold": editorCold,
	"venue-warm":  venueWarm,
	"venue-jobs":  venueJobs,
}

// meter accumulates the timed part of a run: the intervals from
// sending a request to reading its last byte, and the heap allocations
// of the whole timed part.
type meter struct {
	ops, failed, manuscripts int
	wall                     time.Duration
	mallocs, allocBytes      uint64
	respBytes                int64
	latMS                    []float64

	// Per-layer observations.
	computeMS, encodeMS []float64
	extractMS, filterMS []float64
	rankMS              []float64
	retrieved           int
	assembled           int
	filtered            int
	speedups            []float64
	queueWaitMS, runMS  []float64
	loadMS              float64
	jobIDs              []string
	jobSlates           map[string][]string
}

// end closes an interval that ran from start to the last byte of the
// replies rps.
func (m *meter) end(start time.Time, rps ...reply) {
	last := rps[len(rps)-1].end
	m.wall += last.Sub(start)
	m.latMS = append(m.latMS, ms(last.Sub(start)))
	for _, rp := range rps {
		m.respBytes += int64(len(rp.body))
		if !rp.firstByte.IsZero() {
			m.computeMS = append(m.computeMS, ms(rp.firstByte.Sub(rp.start)))
			m.encodeMS = append(m.encodeMS, ms(rp.end.Sub(rp.firstByte)))
		}
	}
}

// result records one manuscript's own phase stats.
func (m *meter) result(r *core.Result) {
	m.extractMS = append(m.extractMS, ms(r.Stats.ExtractionTime))
	m.filterMS = append(m.filterMS, ms(r.Stats.FilterTime))
	m.rankMS = append(m.rankMS, ms(r.Stats.RankTime))
	m.retrieved += r.Stats.CandidatesRetrieved
	m.assembled += r.Stats.ProfilesAssembled
	m.filtered += r.Stats.CandidatesFiltered
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// editorCold sends one manuscript at a time to /api/recommend, with
// every cache dropped before each request, outside the timed interval:
// the paper's on-the-fly extraction path.
func editorCold(s *stack, m *meter, chk *check.Checker, ref []string, d time.Duration) ([]string, error) {
	bodies := make([][]byte, len(s.items))
	for i, it := range s.items {
		b, err := json.Marshal(httpapi.RecommendRequest{Manuscript: it.Manuscript})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	var failures []string
	var buf bytes.Buffer
	for start := time.Now(); m.ops == 0 || time.Since(start) < d; {
		for i := range s.items {
			if err := s.invalidate(); err != nil {
				return nil, err
			}
			rp, err := s.call("recommend", http.MethodPost, "/api/recommend", bodies[i], &buf)
			m.ops++
			if err != nil || rp.status != http.StatusOK {
				m.failed++
				failures = append(failures, fmt.Sprintf("recommend manuscript %d: %v status %d: %.200s", i, err, rp.status, rp.body))
				continue
			}
			m.end(rp.start, rp)
			m.manuscripts++
			var res core.Result
			if err := json.Unmarshal(rp.body, &res); err != nil {
				return nil, fmt.Errorf("recommend manuscript %d: %w", i, err)
			}
			m.result(&res)
			slate := check.SlateOf(&res)
			chk.Slate(fmt.Sprintf("cold manuscript %d", i), s.truth[i], slate)
			if check.Key(slate) != ref[i] {
				failures = append(failures, fmt.Sprintf("cold manuscript %d: slate differs from the set-up slate", i))
			}
		}
	}
	return failures, nil
}

// venueWarm posts the venue's queue to /v1/batch, a dozen manuscripts
// per batch, again and again over the caches set-up warmed: a loaded
// server's steady state, where no source is fetched and conflict
// filtering and ranking dominate. A round is one pass over the queue.
func venueWarm(s *stack, m *meter, chk *check.Checker, ref []string, d time.Duration) ([]string, error) {
	var bodies [][]byte
	for _, ms := range s.batches() {
		b, err := json.Marshal(httpapi.BatchRequest{Manuscripts: ms})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	var failures []string
	var buf bytes.Buffer
	for start := time.Now(); m.ops == 0 || time.Since(start) < d; {
		for bi, body := range bodies {
			rp, err := s.call("batch", http.MethodPost, "/v1/batch", body, &buf)
			m.ops++
			if err != nil || rp.status != http.StatusOK {
				m.failed++
				failures = append(failures, fmt.Sprintf("batch %d: %v status %d: %.200s", bi, err, rp.status, rp.body))
				continue
			}
			m.end(rp.start, rp)
			var br httpapi.BatchResponse
			if err := json.Unmarshal(rp.body, &br); err != nil {
				return nil, fmt.Errorf("batch %d: %w", bi, err)
			}
			slates, err := batchSlates(br.Items)
			if err != nil {
				failures = append(failures, fmt.Sprintf("batch %d: %v", bi, err))
				continue
			}
			m.manuscripts += len(slates)
			if br.ElapsedNS > 0 {
				m.speedups = append(m.speedups, float64(br.ItemElapsedNS)/float64(br.ElapsedNS))
			}
			for k, sl := range slates {
				i := bi*batchSize + k
				m.result(br.Items[k].Result)
				chk.Slate(fmt.Sprintf("warm batch manuscript %d", i), s.truth[i], sl)
				if check.Key(sl) != ref[i] {
					failures = append(failures, fmt.Sprintf("warm batch manuscript %d: slate differs from the cold slate", i))
				}
			}
		}
	}
	return failures, nil
}

const (
	// jobSize is how many manuscripts one job carries; job j takes the
	// queue's manuscripts j, j+1, j+2 (wrapping), so consecutive jobs
	// overlap.
	jobSize = 3
	// Every save rewrites every retained job, so job k costs about
	// jobBaseS + k*jobGrowthS seconds on the reference machine (see
	// README.md). jobCount sizes the stream from these so a run fits its
	// length; the count depends only on the run length, never on how
	// fast this machine happens to be.
	jobBaseS   = 0.06
	jobGrowthS = 0.008
)

// jobCount is the largest n whose estimated total time fits d.
func jobCount(d time.Duration) int {
	a, b := jobBaseS, jobGrowthS/2
	n := int((-a + math.Sqrt(a*a+4*b*d.Seconds())) / (2 * b))
	return max(n, 1)
}

// venueJobs streams small jobs through /v1/jobs: submit, wait for the
// result and read it back, over warm caches and a file-backed store
// whose retained set grows through the run. Unlike the other
// workloads it runs a fixed number of jobs, jobCount(d): the cost of a
// job grows with the jobs before it, so a time-bounded run would
// measure a different mix on a faster or slower machine.
func venueJobs(s *stack, m *meter, chk *check.Checker, ref []string, d time.Duration) ([]string, error) {
	var failures []string
	var buf, buf2 bytes.Buffer
	m.jobSlates = map[string][]string{}
	n := jobCount(d)
	for j := 0; j < n; j++ {
		req := httpapi.JobRequest{Venue: s.venue}
		idx := make([]int, jobSize)
		for k := range idx {
			idx[k] = (j + k) % len(s.items)
			req.Manuscripts = append(req.Manuscripts, s.items[idx[k]].Manuscript)
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		sub, err := s.call("job.submit", http.MethodPost, "/v1/jobs", body, &buf)
		m.ops++
		if err != nil || sub.status != http.StatusAccepted {
			m.failed++
			failures = append(failures, fmt.Sprintf("job %d submit: %v status %d: %.200s", j, err, sub.status, sub.body))
			continue
		}
		var jv jobs.Job
		if err := json.Unmarshal(sub.body, &jv); err != nil {
			return nil, fmt.Errorf("job %d submit: %w", j, err)
		}
		id := jv.ID
		var got reply
		for jv.State != jobs.StateDone && !jv.State.Terminal() {
			got, err = s.call("job.wait", http.MethodGet, "/v1/jobs/"+id+"?wait=60s", nil, &buf2)
			if err != nil || got.status != http.StatusOK {
				break
			}
			jv = jobs.Job{}
			if err := json.Unmarshal(got.body, &jv); err != nil {
				return nil, fmt.Errorf("job %s: %w", id, err)
			}
		}
		if err != nil || got.status != http.StatusOK || jv.State != jobs.StateDone || jv.Result == nil {
			m.failed++
			failures = append(failures, fmt.Sprintf("job %s: %v status %d state %q: %s", id, err, got.status, jv.State, jv.Error))
			continue
		}
		m.end(sub.start, sub, got)
		m.manuscripts += len(jv.Result.Items)
		m.jobIDs = append(m.jobIDs, id)
		if jv.StartedAt != nil && jv.FinishedAt != nil {
			m.queueWaitMS = append(m.queueWaitMS, ms(jv.StartedAt.Sub(jv.SubmittedAt)))
			m.runMS = append(m.runMS, ms(jv.FinishedAt.Sub(*jv.StartedAt)))
		}
		if jv.Result.Elapsed > 0 {
			var sum time.Duration
			for _, it := range jv.Result.Items {
				sum += it.Elapsed
			}
			m.speedups = append(m.speedups, float64(sum)/float64(jv.Result.Elapsed))
		}
		keys, err := jobSlateKeys(jv.Result)
		if err != nil {
			failures = append(failures, fmt.Sprintf("job %s: %v", id, err))
			continue
		}
		m.jobSlates[id] = keys
		for k, it := range jv.Result.Items {
			m.result(it.Result)
			chk.Slate(fmt.Sprintf("job %s manuscript %d", id, idx[k]), s.truth[idx[k]], check.SlateOf(it.Result))
			if keys[k] != ref[idx[k]] {
				failures = append(failures, fmt.Sprintf("job %s manuscript %d: slate differs from the cold slate", id, idx[k]))
			}
		}
	}
	return failures, nil
}

func jobSlateKeys(sum *batch.Summary) ([]string, error) {
	slates, err := batchSlates(sum.Items)
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(slates))
	for i, sl := range slates {
		keys[i] = check.Key(sl)
	}
	return keys, nil
}

// stopQueue stops the server's job queue, which saves its store a
// last time.
func (s *stack) stopQueue() []string {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := s.queue.Stop(ctx)
	s.queue = nil
	if err != nil {
		return []string{fmt.Sprintf("job queue stop: %v", err)}
	}
	return nil
}

// reloadJobs loads the stopped queue's store file into a fresh queue,
// as a restarted server would. Every job the run finished must come
// back done, with the slates the API served.
func (s *stack) reloadJobs(m *meter) []string {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	fresh := jobs.New(func(context.Context, jobs.Spec, func(batch.Item)) (*batch.Summary, error) {
		return nil, errors.New("a reloaded job must not run")
	}, jobs.Options{Store: &jobs.FileStore{Path: s.store.Path}})
	start := time.Now()
	stats, ok, err := fresh.Load()
	end := time.Now()
	m.loadMS = ms(end.Sub(start))
	s.tracer.record("jobs.store.load", start, end)
	if err != nil || !ok {
		return []string{fmt.Sprintf("job store reload: ok=%v err=%v", ok, err)}
	}
	var failures []string
	if stats.Finished != len(m.jobIDs) || stats.Resumed != 0 || stats.Dropped != 0 {
		failures = append(failures, fmt.Sprintf("job store reload: %d finished, %d resumed, %d dropped; want %d finished",
			stats.Finished, stats.Resumed, stats.Dropped, len(m.jobIDs)))
	}
	for _, id := range m.jobIDs {
		j, err := fresh.Get(id)
		if err != nil || j.State != jobs.StateDone || j.Result == nil {
			failures = append(failures, fmt.Sprintf("job store reload: job %s: state %q err %v", id, j.State, err))
			continue
		}
		keys, err := jobSlateKeys(j.Result)
		if err != nil {
			failures = append(failures, fmt.Sprintf("job store reload: job %s: %v", id, err))
			continue
		}
		for k := range keys {
			if keys[k] != m.jobSlates[id][k] {
				failures = append(failures, fmt.Sprintf("job store reload: job %s item %d: slate differs from the served one", id, k))
			}
		}
	}
	if err := fresh.Stop(ctx); err != nil {
		failures = append(failures, fmt.Sprintf("reloaded queue stop: %v", err))
	}
	return failures
}

// snapshot is every counter the metrics difference across the timed
// part.
type snapshot struct {
	fetch                  fetch.Stats
	shared                 core.SharedStats
	webRequests, webConns  int64
	webBusyNS              int64
	siteCalls, siteBusyNS  map[string]int64
	storeSaves, storeBytes int64
	storeSaveNS            int64
	gcCycles               uint32
	gcPauseNS              uint64
}

func (s *stack) snapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sn := snapshot{
		fetch:       s.fetcher.Stats(),
		shared:      s.shared.Stats(),
		webRequests: s.web.requests.Load(),
		webConns:    s.web.newConns.Load(),
		webBusyNS:   s.web.busyNS.Load(),
		siteCalls:   map[string]int64{},
		siteBusyNS:  map[string]int64{},
		storeSaves:  s.store.saves.Load(),
		storeBytes:  s.store.bytes.Load(),
		storeSaveNS: s.store.saveNS.Load(),
		gcCycles:    ms.NumGC,
		gcPauseNS:   ms.PauseTotalNs,
	}
	for site, c := range s.sites {
		sn.siteCalls[site] = c.calls.Load()
		sn.siteBusyNS[site] = c.busyNS.Load()
	}
	return sn
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// endToEnd is what a user of the server sees, from an untraced run:
// set-up time and the counts that hold still while the machine's speed
// drifts. The operation latency and throughput drift with it by more
// than any bound the benchmark may set, so they are per-layer
// (client.latency_ms, client.manuscripts_per_s); see README.md.
func endToEnd(m *meter, setup time.Duration, retained uint64) map[string]metric {
	n := float64(m.manuscripts)
	return map[string]metric{
		"setup_s":                    {setup.Seconds(), "s"},
		"allocs_per_manuscript":      {ratio(float64(m.mallocs), n), "count"},
		"alloc_mb_per_manuscript":    {ratio(float64(m.allocBytes)/1e6, n), "MB"},
		"response_kb_per_manuscript": {ratio(float64(m.respBytes)/1e3, n), "KB"},
		"retained_heap_mb":           {float64(retained) / 1e6, "MB"},
	}
}

// layerMetrics is the traced run's per-layer view. Counts and times are
// per manuscript unless the name says otherwise; see README.md.
func (s *stack) layerMetrics(m *meter, a, b snapshot) map[string]metric {
	n := float64(m.manuscripts)
	per := func(x float64) float64 { return ratio(x, n) }
	f := b.fetch
	fa := a.fetch
	out := map[string]metric{
		"fetch.http_calls":      {per(float64(f.HTTPCalls - fa.HTTPCalls)), "count"},
		"fetch.cache_hit_ratio": {ratio(float64(f.CacheHits-fa.CacheHits), float64(f.Requests-fa.Requests)), "ratio"},
		"fetch.flight_shares":   {per(float64(f.FlightShares - fa.FlightShares)), "count"},
		"fetch.retries":         {per(float64(f.Retries - fa.Retries)), "count"},
		"fetch.kb_fetched":      {per(float64(f.BytesFetched-fa.BytesFetched) / 1e3), "KB"},
		"fetch.new_conns":       {per(float64(b.webConns - a.webConns)), "count"},

		"web.requests":     {per(float64(b.webRequests - a.webRequests)), "count"},
		"web.busy_ms":      {per(float64(b.webBusyNS-a.webBusyNS) / 1e6), "ms"},
		"web.fallthroughs": {float64(s.web.fallthroughs.Load()), "count"},

		"core.extract_ms":           {mean(m.extractMS), "ms"},
		"core.filter_ms":            {mean(m.filterMS), "ms"},
		"core.rank_ms":              {mean(m.rankMS), "ms"},
		"core.candidates_retrieved": {per(float64(m.retrieved)), "count"},
		"core.profiles_assembled":   {per(float64(m.assembled)), "count"},
		"core.candidates_filtered":  {per(float64(m.filtered)), "count"},

		"batch.parallel_speedup": {mean(m.speedups), "x"},

		"client.latency_ms":        {median(m.latMS), "ms"},
		"client.manuscripts_per_s": {ratio(n, m.wall.Seconds()), "manuscripts/s"},

		"api.compute_ms":  {median(m.computeMS), "ms"},
		"api.encode_ms":   {median(m.encodeMS), "ms"},
		"api.response_kb": {ratio(float64(m.respBytes)/1e3, float64(len(m.computeMS))), "KB"},

		"jobs.queue_wait_ms":    {median(m.queueWaitMS), "ms"},
		"jobs.run_ms":           {median(m.runMS), "ms"},
		"jobs.store.saves":      {ratio(float64(b.storeSaves-a.storeSaves), float64(len(m.jobIDs))), "count"},
		"jobs.store.save_ms":    {ratio(float64(b.storeSaveNS-a.storeSaveNS)/1e6, float64(len(m.jobIDs))), "ms"},
		"jobs.store.mb_written": {ratio(float64(b.storeBytes-a.storeBytes)/1e6, float64(len(m.jobIDs))), "MB"},
		"jobs.store.load_ms":    {m.loadMS, "ms"},
		"runtime.gc_cycles":     {float64(b.gcCycles - a.gcCycles), "count"},
		"runtime.gc_pause_ms":   {float64(b.gcPauseNS-a.gcPauseNS) / 1e6, "ms"},
	}
	for name, st := range map[string][2]cache.Stats{
		"profiles":   {a.shared.Profiles, b.shared.Profiles},
		"verifies":   {a.shared.Verifies, b.shared.Verifies},
		"expansions": {a.shared.Expansions, b.shared.Expansions},
		"retrievals": {a.shared.Retrievals, b.shared.Retrievals},
	} {
		d := st[1].Sub(st[0])
		out["shared."+name+".hit_ratio"] = metric{ratio(float64(d.Hits), float64(d.Hits+d.Misses)), "ratio"}
	}
	for _, site := range []string{"dblp", "scholar", "publons", "acm", "orcid", "rid"} {
		out["sources."+site+".calls"] = metric{per(float64(b.siteCalls[site] - a.siteCalls[site])), "count"}
		out["sources."+site+".busy_ms"] = metric{per(float64(b.siteBusyNS[site]-a.siteBusyNS[site]) / 1e6), "ms"}
	}
	return out
}
