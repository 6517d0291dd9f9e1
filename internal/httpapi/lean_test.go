package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"minaret/internal/batch"
	"minaret/internal/core"
	"minaret/internal/ontology"
	"minaret/internal/profile"
	"minaret/internal/scholarly"
)

// leanView decodes the profiles an encoded Result embeds as summaries,
// so they compare field for field with Profile.Summary.
type leanView struct {
	AuthorProfiles  []*profile.Summary `json:"author_profiles"`
	Recommendations []struct {
		Reviewer *profile.Summary `json:"reviewer"`
	} `json:"recommendations"`
}

// checkLeanResult asserts that raw, an encoded result, serves want: each
// embedded reviewer and author is exactly its profile's summary, and
// every other field decodes to what want holds.
func checkLeanResult(t *testing.T, label string, raw []byte, want *core.Result) {
	t.Helper()
	for _, key := range []string{"Publications", "Reviews", "AffiliationHistory"} {
		if bytes.Contains(raw, []byte(`"`+key+`"`)) {
			t.Fatalf("%s: reply carries %s", label, key)
		}
	}
	var view leanView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(view.AuthorProfiles) != len(want.AuthorProfiles) || len(view.Recommendations) != len(want.Recommendations) {
		t.Fatalf("%s: reply has %d authors, %d recommendations; result %d, %d", label,
			len(view.AuthorProfiles), len(view.Recommendations), len(want.AuthorProfiles), len(want.Recommendations))
	}
	for i, p := range want.AuthorProfiles {
		if !reflect.DeepEqual(view.AuthorProfiles[i], p.Summary()) {
			t.Errorf("%s: author %d = %+v, want %+v", label, i, view.AuthorProfiles[i], p.Summary())
		}
	}
	for i, rec := range want.Recommendations {
		if !reflect.DeepEqual(view.Recommendations[i].Reviewer, rec.Reviewer.Summary()) {
			t.Errorf("%s: reviewer %d = %+v, want %+v", label, i, view.Recommendations[i].Reviewer, rec.Reviewer.Summary())
		}
	}

	var got core.Result
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rest := *want
	rest.AuthorProfiles, got.AuthorProfiles = nil, nil
	rest.Recommendations = append(want.Recommendations[:0:0], want.Recommendations...)
	for i := range rest.Recommendations {
		rest.Recommendations[i].Reviewer, got.Recommendations[i].Reviewer = nil, nil
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(rest)
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i), wv.Field(i)
		if reflect.DeepEqual(g.Interface(), w.Interface()) || bothEmpty(g, w) {
			continue
		}
		t.Errorf("%s: %s decodes to %+v, the result holds %+v", label, gv.Type().Field(i).Name, g, w)
	}
}

// bothEmpty reports two empty maps or slices: omitempty leaves an empty
// one out of the reply, and it decodes as nil.
func bothEmpty(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Map, reflect.Slice:
		return a.Len() == 0 && b.Len() == 0
	}
	return false
}

// TestLeanRepliesServeTheResult: over the four adversarial corpusgen
// scenarios, and over a batch of them, a compact reply decodes to the
// engine's in-memory result on every field it serves — rank, total,
// breakdown, matches, excluded evidence, stats, verification and
// expansions — with each reviewer and author reduced to its summary.
func TestLeanRepliesServeTheResult(t *testing.T) {
	o := ontology.Default()
	corpus := scholarly.MustGenerate(scholarly.GeneratorConfig{
		Seed: 77, NumScholars: 300, Topics: o.Topics(), Related: o.RelatedMap(),
	})
	seeds, err := scholarly.InjectScenarios(corpus, nil, scholarly.ScenarioOptions{
		Topics: o.Topics(), Related: o.RelatedMap(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerFor(t, o, corpus)
	cfg, err := srv.configFor(&RecommendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	engine := core.NewWithShared(srv.registry, srv.ont, cfg, srv.shared)
	ctx := context.Background()

	var mss []core.Manuscript
	scenarios := map[string]bool{}
	excluded := 0
	for _, seed := range seeds {
		ms := core.Manuscript{
			Title:       fmt.Sprintf("Scenario %s/%d submission", seed.Scenario, seed.Case),
			Keywords:    seed.Keywords,
			TargetVenue: seed.Venue,
		}
		for _, id := range append([]scholarly.ScholarID{seed.Lead}, seed.CoAuthors...) {
			s := corpus.Scholar(id)
			ms.Authors = append(ms.Authors, core.Author{
				Name: s.Name.Full(), Affiliation: s.CurrentAffiliation().Institution,
			})
		}
		res, err := engine.Recommend(ctx, ms)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recommendations) == 0 || len(res.AuthorProfiles) == 0 {
			t.Fatalf("%s: nothing to encode: %d recommendations, %d author profiles",
				seed.Scenario, len(res.Recommendations), len(res.AuthorProfiles))
		}
		rr := httptest.NewRecorder()
		writeJSON(rr, http.StatusOK, res)
		if n := bytes.Count(rr.Body.Bytes(), []byte("\n")); n != 1 {
			t.Fatalf("%s: reply spans %d lines, want compact JSON", seed.Scenario, n)
		}
		checkLeanResult(t, seed.Scenario, rr.Body.Bytes(), res)
		mss = append(mss, ms)
		scenarios[seed.Scenario] = true
		excluded += len(res.ExcludedCandidates)
	}
	if len(scenarios) != len(scholarly.ScenarioNames()) {
		t.Fatalf("covered scenarios %v", scenarios)
	}
	if excluded == 0 {
		t.Fatal("no excluded candidates: the evidence went unchecked")
	}

	sum := batch.New(engine, batch.Options{Workers: 2}).Process(ctx, mss)
	rr := httptest.NewRecorder()
	writeJSON(rr, http.StatusOK, BatchResponse{Items: sum.Items, Count: len(sum.Items), Succeeded: sum.Succeeded})
	var reply struct {
		Items []struct {
			Index  int             `json:"index"`
			Status string          `json:"status"`
			Result json.RawMessage `json:"result"`
		} `json:"items"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Items) != len(mss) {
		t.Fatalf("batch reply has %d items, want %d", len(reply.Items), len(mss))
	}
	for i, it := range sum.Items {
		if it.Status != batch.StatusOK || reply.Items[i].Status != batch.StatusOK {
			t.Fatalf("batch item %d: %s (%s)", i, it.Status, it.Error)
		}
		checkLeanResult(t, fmt.Sprintf("batch item %d", i), reply.Items[i].Result, it.Result)
	}

	// Through the front door the reply is the same lean form, and it
	// still decodes into the full types.
	api := httptest.NewServer(srv.Handler())
	defer api.Close()
	resp := postJSON(t, api.URL+"/api/recommend", RecommendRequest{Manuscript: mss[0]})
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /api/recommend: %d, %v", resp.StatusCode, err)
	}
	if bytes.Count(body, []byte("\n")) != 1 || bytes.Contains(body, []byte(`"Publications"`)) {
		t.Fatalf("reply is not compact and lean: %.300s", body)
	}
	var res core.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) == 0 || res.Recommendations[0].Reviewer == nil || res.Recommendations[0].Reviewer.Name == "" {
		t.Fatalf("decoded reply lost its reviewers: %+v", res.Recommendations)
	}
}

// discardResponse is a ResponseWriter that keeps nothing but a byte
// count, so a benchmark measures the encoder, not a growing buffer.
type discardResponse struct {
	header http.Header
	n      int64
}

func (d *discardResponse) Header() http.Header { return d.header }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// BenchmarkEncodeBatchReply encodes a warm 12-manuscript /v1/batch reply
// at the server's default TopK of 10: what writeJSON costs a reply once
// the pipeline has run. B/op, allocs/op and KB/reply are its figures.
func BenchmarkEncodeBatchReply(b *testing.B) {
	o := ontology.Default()
	corpus := scholarly.MustGenerate(scholarly.GeneratorConfig{
		Seed: 77, NumScholars: 300, Topics: o.Topics(), Related: o.RelatedMap(),
	})
	srv := newServerFor(b, o, corpus)
	var mss []core.Manuscript
	for i := 0; i < len(corpus.Scholars) && len(mss) < 12; i++ {
		s := &corpus.Scholars[i]
		if !s.Presence.GoogleScholar || len(s.Publications) < 5 || len(s.Interests) < 2 {
			continue
		}
		mss = append(mss, core.Manuscript{
			Title:    "Batch submission",
			Keywords: s.Interests[:2],
			Authors:  []core.Author{{Name: s.Name.Full(), Affiliation: s.CurrentAffiliation().Institution}},
		})
	}
	cfg, err := srv.configFor(&RecommendOptions{TopK: 10})
	if err != nil {
		b.Fatal(err)
	}
	proc := batch.New(core.NewWithShared(srv.registry, srv.ont, cfg, srv.shared), batch.Options{Workers: 2})
	proc.Process(context.Background(), mss) // warm the caches
	sum := proc.Process(context.Background(), mss)
	if len(mss) != 12 || sum.Succeeded != 12 {
		b.Fatalf("%d manuscripts, %d succeeded", len(mss), sum.Succeeded)
	}
	reply := BatchResponse{Items: sum.Items, Count: len(sum.Items), Succeeded: sum.Succeeded, Cache: sum.Cache}
	w := &discardResponse{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeJSON(w, http.StatusOK, reply)
	}
	b.ReportMetric(float64(w.n)/float64(b.N)/1024, "KB/reply")
}
