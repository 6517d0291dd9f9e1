package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"minaret/internal/batch"
	"minaret/internal/core"
	"minaret/internal/jobs"
	"minaret/internal/profile"

	"minaret/perfbench/check"
)

// TestRecordedWebVerify shows the set-up check fails when the recorded
// web serves bytes the live site no longer renders, and counts a URL
// that was never recorded as a fall-through.
func TestRecordedWebVerify(t *testing.T) {
	var version atomic.Int64
	live := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintf(w, "%s v%d", r.URL.Path, version.Load())
	})
	web := newRecordedWeb(live, nil)
	srv, base, err := serve(web, web.connState)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, p := range []string{"/dblp/a", "/orcid/b"} {
		resp, err := client.Get(base + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if n := web.freeze(); n != 2 {
		t.Fatalf("recorded %d pages, want 2", n)
	}
	if n, err := web.verify(client, base); err != nil || n != 2 {
		t.Fatalf("verify = %d, %v; want 2 pages and no error", n, err)
	}
	if web.newConns.Load() == 0 {
		t.Fatal("no connection counted")
	}

	version.Store(1) // the live site now renders other bytes
	if _, err := web.verify(client, base); err == nil || !strings.Contains(err.Error(), "differ") {
		t.Fatalf("verify after a change = %v, want a byte mismatch", err)
	}

	version.Store(0)
	resp, err := client.Get(base + "/acm/c")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := web.fallthroughs.Load(); got != 1 {
		t.Fatalf("fallthroughs = %d, want 1", got)
	}
	if _, err := web.verify(client, base); err == nil || !strings.Contains(err.Error(), "fell through") {
		t.Fatalf("verify after a fall-through = %v, want it reported", err)
	}
}

func summaryFor(names ...string) *batch.Summary {
	sum := &batch.Summary{}
	for i, n := range names {
		res := &core.Result{Recommendations: []core.Recommendation{{
			Rank:     1,
			Reviewer: &profile.Profile{Name: n, SiteIDs: map[string]string{"dblp": "00/1000"}},
		}}}
		sum.Items = append(sum.Items, batch.Item{Index: i, Status: batch.StatusOK, Result: res})
		sum.Succeeded++
	}
	return sum
}

// TestReloadJobs shows the end-of-run store check fails for a job the
// store lost and for a slate that differs from the one served.
func TestReloadJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.store")
	q := jobs.New(func(_ context.Context, spec jobs.Spec, _ func(batch.Item)) (*batch.Summary, error) {
		return summaryFor(spec.Manuscripts[0].Title), nil
	}, jobs.Options{Store: &jobs.FileStore{Path: path}})
	q.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var ids []string
	for _, title := range []string{"a", "b"} {
		j, err := q.Submit(jobs.Spec{Manuscripts: []core.Manuscript{{Title: title}}})
		if err != nil {
			t.Fatal(err)
		}
		if j, err = q.Wait(ctx, j.ID, 5*time.Second); err != nil || j.State != jobs.StateDone {
			t.Fatalf("job %s: state %q, err %v", j.ID, j.State, err)
		}
		ids = append(ids, j.ID)
	}
	s := &stack{queue: q, store: &countingStore{FileStore: jobs.FileStore{Path: path}}}
	if f := s.stopQueue(); len(f) != 0 {
		t.Fatal(f)
	}
	served := func(name string) []string {
		return []string{check.Key(check.SlateOf(summaryFor(name).Items[0].Result))}
	}

	m := &meter{jobIDs: ids, jobSlates: map[string][]string{ids[0]: served("a"), ids[1]: served("b")}}
	if f := s.reloadJobs(m); len(f) != 0 {
		t.Fatalf("faithful store rejected: %v", f)
	}

	m = &meter{jobIDs: []string{ids[0], "lost"}, jobSlates: map[string][]string{ids[0]: served("a")}}
	if f := strings.Join(s.reloadJobs(m), "; "); !strings.Contains(f, "job lost") {
		t.Fatalf("lost job not reported: %q", f)
	}

	m = &meter{jobIDs: ids, jobSlates: map[string][]string{ids[0]: served("a"), ids[1]: served("z")}}
	if f := strings.Join(s.reloadJobs(m), "; "); !strings.Contains(f, "differs from the served one") {
		t.Fatalf("changed slate not reported: %q", f)
	}
}

func TestJobCountFitsRunLength(t *testing.T) {
	for _, secs := range []int{1, 10, 20, 60} {
		d := time.Duration(secs) * time.Second
		n := jobCount(d)
		est := func(n int) float64 { return jobBaseS*float64(n) + jobGrowthS*float64(n*n)/2 }
		// A hair of slack for the floating-point square root.
		if n < 1 || (n > 1 && est(n) > d.Seconds()+1e-9) || est(n+1) < d.Seconds()-1e-9 {
			t.Fatalf("jobCount(%v) = %d: estimate %.2fs, next %.2fs", d, n, est(n), est(n+1))
		}
	}
}
