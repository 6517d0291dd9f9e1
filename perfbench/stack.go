package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"minaret/internal/batch"
	"minaret/internal/core"
	"minaret/internal/fetch"
	"minaret/internal/httpapi"
	"minaret/internal/jobs"
	"minaret/internal/ontology"
	"minaret/internal/scholarly"
	"minaret/internal/simweb"
	"minaret/internal/sources"
	"minaret/internal/workload"

	"minaret/perfbench/check"
)

const (
	// corpusScholars sizes the generated corpus.
	corpusScholars = 1000
	// corpusSeed fixes the scholarly world (cmd/minaret-server's default
	// -seed). The run's seed picks the manuscripts: corpora of different
	// seeds differ in density enough to move per-manuscript costs by a
	// fifth, which would drown the differences the benchmark exists to
	// show.
	corpusSeed = 42
	// queueSize is the venue's submission queue: the manuscripts every
	// workload recommends reviewers for. It is three times a batch so
	// that a run averages over enough manuscripts for its figures to
	// hold still from one seed to the next.
	queueSize = 36
	// batchSize is the dozen submissions one /v1/batch carries.
	batchSize = 12
	// candidatePool is how many workload manuscripts are generated to
	// find one venue with a full queue.
	candidatePool = 60
	// topK is the server's default slate length (cmd/minaret-server
	// -top-k).
	topK = 10
)

// stack is the serving path in one process, built the way
// cmd/minaret-server builds it, over a recorded copy of the simulated
// scholarly web.
type stack struct {
	corpus *scholarly.Corpus
	venue  string
	items  []workload.Item
	truth  []check.Truth

	web    *recordedWeb
	webSrv *http.Server
	webURL string

	fetcher *fetch.Client
	shared  *core.Shared
	queue   *jobs.Queue
	store   *countingStore
	apiSrv  *http.Server
	apiURL  string
	client  *http.Client

	tracer *tracer
	sites  map[string]*siteCalls // nil unless traced

	logMu  sync.Mutex
	logged []string // queue background failures
}

// serve starts h on a loopback listener.
func serve(h http.Handler, connState func(net.Conn, http.ConnState)) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ConnState: connState}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// venueQueue generates workload manuscripts and keeps the largest
// group aimed at one venue — a venue's submission queue, whose
// manuscripts share topics and so overlap in candidates.
func venueQueue(c *scholarly.Corpus, o *ontology.Ontology, seed int64) (string, []workload.Item, error) {
	pool := workload.NewGenerator(c, o, workload.Config{Seed: seed, NumManuscripts: candidatePool}).Generate()
	byVenue := map[string][]workload.Item{}
	for _, it := range pool {
		byVenue[it.Manuscript.TargetVenue] = append(byVenue[it.Manuscript.TargetVenue], it)
	}
	venues := make([]string, 0, len(byVenue))
	for v := range byVenue {
		venues = append(venues, v)
	}
	sort.Slice(venues, func(i, j int) bool {
		a, b := len(byVenue[venues[i]]), len(byVenue[venues[j]])
		return a > b || a == b && venues[i] < venues[j]
	})
	if len(venues) == 0 || len(byVenue[venues[0]]) < queueSize {
		return "", nil, fmt.Errorf("no venue has %d manuscripts among %d generated", queueSize, len(pool))
	}
	return venues[0], byVenue[venues[0]][:queueSize], nil
}

func newStack(seed int64, workDir string, traced bool) (*stack, error) {
	s := &stack{}
	if traced {
		s.tracer = newTracer()
	}
	o := ontology.Default()
	s.corpus = scholarly.MustGenerate(scholarly.GeneratorConfig{
		Seed:        corpusSeed,
		NumScholars: corpusScholars,
		Topics:      o.Topics(),
		Related:     o.RelatedMap(),
	})
	var err error
	s.venue, s.items, err = venueQueue(s.corpus, o, seed)
	if err != nil {
		return nil, err
	}
	for _, it := range s.items {
		s.truth = append(s.truth, check.NewTruth(s.corpus, it))
	}

	s.web = newRecordedWeb(simweb.New(s.corpus, simweb.Config{}).Mux(), s.tracer)
	if s.webSrv, s.webURL, err = serve(s.web, s.web.connState); err != nil {
		return nil, err
	}

	// The server's fetch options. All six sites share one listener, so
	// per-host politeness is off, as cmd/minaret-server does for its
	// in-process web. Transport stays unset.
	s.fetcher = fetch.New(fetch.Options{Timeout: 20 * time.Second, BaseBackoff: 10 * time.Millisecond, PerHostRate: -1})
	registry := sources.DefaultRegistry(s.fetcher, sources.SingleHost(s.webURL))
	if traced {
		registry, s.sites = traceRegistry(registry, s.tracer)
	}
	api := httpapi.New(registry, o, core.Config{TopK: topK}, s.corpus.HorizonYear)
	api.SetFetcher(s.fetcher)
	s.shared = core.NewShared(core.SharedOptions{
		SnapshotScope: fmt.Sprintf("inproc seed=%d scholars=%d", corpusSeed, corpusScholars),
	})
	api.SetShared(s.shared, nil)
	s.store = &countingStore{FileStore: jobs.FileStore{Path: filepath.Join(workDir, "jobs.store")}, tracer: s.tracer}
	queue, _, err := api.EnableJobs(jobs.Options{
		Workers: 2,
		Depth:   64,
		Store:   s.store,
		Logf: func(format string, args ...any) {
			s.logMu.Lock()
			s.logged = append(s.logged, fmt.Sprintf(format, args...))
			s.logMu.Unlock()
		},
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	s.queue = queue
	if s.apiSrv, s.apiURL, err = serve(api.Handler(), nil); err != nil {
		return nil, err
	}
	// One closed-loop client on its own transport, so its connection
	// pool is not the one fetch draws from.
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	return s, nil
}

// close stops the job queue and both servers and waits for them.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if s.queue != nil {
		s.queue.Stop(ctx)
	}
	if s.apiSrv != nil {
		s.apiSrv.Shutdown(ctx)
	}
	if s.webSrv != nil {
		s.webSrv.Shutdown(ctx)
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// reply is one API response as the client read it.
type reply struct {
	status    int
	body      []byte
	start     time.Time
	firstByte time.Time
	end       time.Time
}

// call sends one request and reads the whole response. The span covers
// sending to the last byte read.
func (s *stack) call(span, method, path string, body []byte, buf *bytes.Buffer) (reply, error) {
	var rp reply
	req, err := http.NewRequest(method, s.apiURL+path, bytes.NewReader(body))
	if err != nil {
		return rp, err
	}
	if s.tracer != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { rp.firstByte = time.Now() },
		}))
	}
	rp.start = time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return rp, fmt.Errorf("%s %s: %w", method, path, err)
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	rp.end = time.Now()
	if err != nil {
		return rp, fmt.Errorf("%s %s: read: %w", method, path, err)
	}
	rp.status = resp.StatusCode
	rp.body = buf.Bytes()
	s.tracer.record("client."+span, rp.start, rp.end)
	return rp, nil
}

// postJSON marshals v and posts it, expecting want. span names the
// request in a trace.
func (s *stack) postJSON(span, path string, v any, want int) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	rp, err := s.call(span, http.MethodPost, path, body, &buf)
	if err != nil {
		return nil, err
	}
	if rp.status != want {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", path, rp.status, rp.body)
	}
	return append([]byte(nil), rp.body...), nil
}

func (s *stack) invalidate() error {
	_, err := s.postJSON("invalidate", "/api/invalidate-cache", nil, http.StatusOK)
	return err
}

// batchSlates reads the per-manuscript slates of a batch.
func batchSlates(items []batch.Item) ([][]check.Rec, error) {
	out := make([][]check.Rec, len(items))
	for i, it := range items {
		if it.Status != batch.StatusOK || it.Result == nil {
			return nil, fmt.Errorf("batch item %d: status %q: %s", i, it.Status, it.Error)
		}
		out[i] = check.SlateOf(it.Result)
	}
	return out, nil
}

// batches splits the queue into /v1/batch requests of batchSize.
func (s *stack) batches() [][]core.Manuscript {
	var out [][]core.Manuscript
	for i := 0; i < len(s.items); i += batchSize {
		var b []core.Manuscript
		for _, it := range s.items[i:min(i+batchSize, len(s.items))] {
			b = append(b, it.Manuscript)
		}
		out = append(out, b)
	}
	return out
}

// postBatch posts one batch of the queue and returns its slates.
func (s *stack) postBatch(ms []core.Manuscript) ([][]check.Rec, error) {
	body, err := s.postJSON("setup", "/v1/batch", httpapi.BatchRequest{Manuscripts: ms}, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var br httpapi.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	return batchSlates(br.Items)
}

// warm runs the set-up passes. It returns each manuscript's reference
// slate key and the time spent recording and checking the web, which
// set-up time leaves out because it is the simulator's work.
//
// The queue goes through /v1/batch three times. The first pass, from
// empty caches, records the web as it is fetched; the recorded web is
// then frozen and checked byte for byte against simweb. The caches are
// dropped, and the second pass, from empty caches again, fetches from
// the frozen recording: the cold start a server pays. The third, from
// warm caches, must fetch nothing. Caching must be transparent: every
// pass serves each manuscript the slate of the first (the timed
// workloads compare theirs against it too).
func (s *stack) warm(chk *check.Checker) ([]string, time.Duration, error) {
	ref := make([]string, len(s.items))
	var recording time.Duration
	for pass, label := range []string{"recording batch", "cold batch", "warm batch"} {
		start := time.Now()
		before := s.fetcher.Stats()
		i := 0
		for _, ms := range s.batches() {
			slates, err := s.postBatch(ms)
			if err != nil {
				return nil, 0, fmt.Errorf("set-up %s: %w", label, err)
			}
			for _, sl := range slates {
				chk.Slate(fmt.Sprintf("set-up %s manuscript %d", label, i), s.truth[i], sl)
				if pass == 0 {
					ref[i] = check.Key(sl)
				} else if check.Key(sl) != ref[i] {
					return nil, 0, fmt.Errorf("caching is not transparent: manuscript %d's %s slate differs from its recording slate", i, label)
				}
				i++
			}
		}
		switch pass {
		case 0:
			pages := s.web.freeze()
			verified, err := s.web.verify(&http.Client{Transport: &http.Transport{DisableCompression: true}}, s.webURL)
			if err != nil {
				return nil, 0, err
			}
			if verified != pages {
				return nil, 0, fmt.Errorf("recorded web: verified %d of %d pages", verified, pages)
			}
			recording = time.Since(start)
			if err := s.invalidate(); err != nil {
				return nil, 0, err
			}
		case 2:
			if calls := s.fetcher.Stats().HTTPCalls - before.HTTPCalls; calls != 0 {
				return nil, 0, fmt.Errorf("warm batches made %d source requests, want 0", calls)
			}
		}
	}
	return ref, recording, nil
}

// backgroundFailures reports what the job queue logged.
func (s *stack) backgroundFailures() []string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return append([]string(nil), s.logged...)
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}
