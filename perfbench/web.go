package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// page is one recorded simweb response.
type page struct {
	status int
	header http.Header
	body   []byte
}

// recordedWeb serves the six simulated sites from responses recorded
// from simweb, so the simulator's page rendering stays out of the timed
// region. While recording, a miss renders live and is kept; once
// frozen, a miss still renders live (so the run never fails for want
// of a page) but is counted as a fall-through.
type recordedWeb struct {
	live   http.Handler
	tracer *tracer

	mu        sync.RWMutex
	pages     map[string]*page
	recording bool

	requests     atomic.Int64
	fallthroughs atomic.Int64
	newConns     atomic.Int64
	busyNS       atomic.Int64
}

func newRecordedWeb(live http.Handler, tr *tracer) *recordedWeb {
	return &recordedWeb{live: live, tracer: tr, pages: map[string]*page{}, recording: true}
}

func (w *recordedWeb) render(uri string) *page {
	rec := httptest.NewRecorder()
	w.live.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, uri, nil))
	return &page{status: rec.Code, header: rec.Header().Clone(), body: rec.Body.Bytes()}
}

func (w *recordedWeb) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.requests.Add(1)
	uri := r.URL.RequestURI()
	w.mu.RLock()
	p, recording := w.pages[uri], w.recording
	w.mu.RUnlock()
	if p == nil {
		p = w.render(uri)
		if recording {
			w.mu.Lock()
			w.pages[uri] = p
			w.mu.Unlock()
		} else {
			w.fallthroughs.Add(1)
		}
	}
	h := rw.Header()
	for k, v := range p.header {
		h[k] = v
	}
	rw.WriteHeader(p.status)
	rw.Write(p.body)
	if w.tracer != nil {
		end := time.Now()
		w.busyNS.Add(int64(end.Sub(start)))
		w.tracer.record("web.serve", start, end)
	}
}

// connState counts the connections the recorded web accepts.
func (w *recordedWeb) connState(_ net.Conn, s http.ConnState) {
	if s == http.StateNew {
		w.newConns.Add(1)
	}
}

// freeze stops recording and returns how many pages were kept.
func (w *recordedWeb) freeze() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recording = false
	return len(w.pages)
}

// verify fetches every recorded URL from the running recorded web at
// base and compares status, content type and body with a fresh simweb
// rendering of the same URL. It returns the number of URLs compared.
func (w *recordedWeb) verify(client *http.Client, base string) (int, error) {
	w.mu.RLock()
	uris := make([]string, 0, len(w.pages))
	for u := range w.pages {
		uris = append(uris, u)
	}
	w.mu.RUnlock()
	sort.Strings(uris)
	before := w.requests.Load()
	for _, u := range uris {
		want := w.render(u)
		resp, err := client.Get(base + u)
		if err != nil {
			return 0, fmt.Errorf("recorded web: GET %s: %w", u, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, fmt.Errorf("recorded web: read %s: %w", u, err)
		}
		switch {
		case resp.StatusCode != want.status:
			return 0, fmt.Errorf("recorded web: %s served status %d, simweb renders %d", u, resp.StatusCode, want.status)
		case resp.Header.Get("Content-Type") != want.header.Get("Content-Type"):
			return 0, fmt.Errorf("recorded web: %s served content type %q, simweb renders %q", u, resp.Header.Get("Content-Type"), want.header.Get("Content-Type"))
		case !bytes.Equal(body, want.body):
			return 0, fmt.Errorf("recorded web: %s served %d bytes that differ from simweb's %d", u, len(body), len(want.body))
		}
	}
	if n := w.fallthroughs.Load(); n != 0 {
		return 0, fmt.Errorf("recorded web: %d of %d verified URLs fell through to simweb", n, w.requests.Load()-before)
	}
	return len(uris), nil
}
