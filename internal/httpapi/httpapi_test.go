package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"minaret/internal/core"
	"minaret/internal/fetch"
	"minaret/internal/nameres"
	"minaret/internal/ontology"
	"minaret/internal/scholarly"
	"minaret/internal/simweb"
	"minaret/internal/sources"
)

type apiFixture struct {
	corpus *scholarly.Corpus
	api    *httptest.Server
	srv    *Server
}

// newServerFixture builds the Server (and its simulated world) without
// serving it yet, so tests can finish configuring it — enabling jobs,
// capping body sizes — before the first goroutine reads its fields.
func newServerFixture(t testing.TB) (*scholarly.Corpus, *Server) {
	t.Helper()
	o := ontology.Default()
	corpus := scholarly.MustGenerate(scholarly.GeneratorConfig{
		Seed: 77, NumScholars: 300, Topics: o.Topics(), Related: o.RelatedMap(),
	})
	return corpus, newServerFor(t, o, corpus)
}

// newServerFor builds a Server over a simulated web serving corpus.
func newServerFor(t testing.TB, o *ontology.Ontology, corpus *scholarly.Corpus) *Server {
	t.Helper()
	web := simweb.New(corpus, simweb.Config{})
	webSrv := httptest.NewServer(web.Mux())
	t.Cleanup(webSrv.Close)
	f := fetch.New(fetch.Options{Timeout: 10 * time.Second, BaseBackoff: time.Millisecond, PerHostRate: -1})
	registry := sources.DefaultRegistry(f, sources.SingleHost(webSrv.URL))
	srv := New(registry, o, core.Config{TopK: 5, MaxCandidates: 40}, corpus.HorizonYear)
	srv.SetFetcher(f)
	return srv
}

func newAPIFixture(t testing.TB) *apiFixture {
	t.Helper()
	corpus, srv := newServerFixture(t)
	api := httptest.NewServer(srv.Handler())
	t.Cleanup(api.Close)
	return &apiFixture{corpus: corpus, api: api, srv: srv}
}

func (fx *apiFixture) author(t testing.TB) *scholarly.Scholar {
	t.Helper()
	for i := range fx.corpus.Scholars {
		s := &fx.corpus.Scholars[i]
		if s.Presence.GoogleScholar && len(s.Publications) >= 5 && len(s.Interests) > 0 {
			return s
		}
	}
	t.Fatal("no author")
	return nil
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRecommendEndpoint(t *testing.T) {
	fx := newAPIFixture(t)
	a := fx.author(t)
	req := RecommendRequest{
		Manuscript: core.Manuscript{
			Title:    "T",
			Keywords: a.Interests[:1],
			Authors: []core.Author{{
				Name: a.Name.Full(), Affiliation: a.CurrentAffiliation().Institution,
			}},
		},
		RecommendOptions: RecommendOptions{TopK: 3},
	}
	resp := postJSON(t, fx.api.URL+"/api/recommend", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var res core.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Recommendations) == 0 || len(res.Recommendations) > 3 {
		t.Fatalf("recommendations = %d", len(res.Recommendations))
	}
	if res.Stats.CandidatesRetrieved == 0 {
		t.Error("stats missing")
	}
}

func TestRecommendValidationError(t *testing.T) {
	fx := newAPIFixture(t)
	resp := postJSON(t, fx.api.URL+"/api/recommend", RecommendRequest{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var e ErrorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	if !strings.Contains(e.Error, "keyword") {
		t.Fatalf("error = %q", e.Error)
	}
}

func TestRecommendBadJSON(t *testing.T) {
	fx := newAPIFixture(t)
	resp, err := http.Post(fx.api.URL+"/api/recommend", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestRecommendMethodNotAllowed(t *testing.T) {
	fx := newAPIFixture(t)
	resp, err := http.Get(fx.api.URL + "/api/recommend")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestRecommendBadOptions(t *testing.T) {
	fx := newAPIFixture(t)
	a := fx.author(t)
	base := core.Manuscript{
		Keywords: a.Interests[:1],
		Authors:  []core.Author{{Name: a.Name.Full()}},
	}
	for _, req := range []RecommendRequest{
		{Manuscript: base, RecommendOptions: RecommendOptions{COILevel: "planet"}},
		{Manuscript: base, RecommendOptions: RecommendOptions{ImpactMetric: "shoe-size"}},
	} {
		resp := postJSON(t, fx.api.URL+"/api/recommend", req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad option accepted: %+v -> %d", req, resp.StatusCode)
		}
	}
}

func TestVerifyEndpoint(t *testing.T) {
	fx := newAPIFixture(t)
	a := fx.author(t)
	resp := postJSON(t, fx.api.URL+"/api/verify-authors", VerifyRequest{
		Authors: []core.Author{{Name: a.Name.Full(), Affiliation: a.CurrentAffiliation().Institution}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var results []*nameres.Result
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Best() == nil {
		t.Fatalf("results = %+v", results)
	}
}

func TestVerifyRequiresAuthors(t *testing.T) {
	fx := newAPIFixture(t)
	resp := postJSON(t, fx.api.URL+"/api/verify-authors", VerifyRequest{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestExpandEndpoint(t *testing.T) {
	fx := newAPIFixture(t)
	resp, err := http.Get(fx.api.URL + "/api/expand?keyword=rdf")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var exps []ontology.Expansion
	if err := json.NewDecoder(resp.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range exps {
		if e.Keyword == "semantic web" {
			found = true
		}
	}
	if !found {
		t.Fatal("expansion missing semantic web")
	}
	// Missing keyword param.
	resp2, _ := http.Get(fx.api.URL + "/api/expand")
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing param status = %d", resp2.StatusCode)
	}
}

func TestHealthAndIndex(t *testing.T) {
	fx := newAPIFixture(t)
	resp, err := http.Get(fx.api.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %d", resp.StatusCode)
	}
	resp2, err := http.Get(fx.api.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || !strings.Contains(resp2.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("index = %d %s", resp2.StatusCode, resp2.Header.Get("Content-Type"))
	}
	resp3, _ := http.Get(fx.api.URL + "/nope")
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path = %d", resp3.StatusCode)
	}
}

func TestReviewerEndpoint(t *testing.T) {
	fx := newAPIFixture(t)
	a := fx.author(t)
	u := fx.api.URL + "/api/reviewer?name=" + url.QueryEscape(a.Name.Full()) +
		"&affiliation=" + url.QueryEscape(a.CurrentAffiliation().Institution)
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Resolved bool `json:"resolved"`
		Profile  struct {
			Name         string `json:"Name"`
			Publications []any  `json:"Publications"`
		} `json:"profile"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Profile.Name == "" || len(out.Profile.Publications) == 0 {
		t.Fatalf("profile incomplete: %+v", out.Profile)
	}
	// Unknown scholar: 404.
	r2, _ := http.Get(fx.api.URL + "/api/reviewer?name=Nobody+Anywhere")
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown reviewer = %d", r2.StatusCode)
	}
	// Missing name: 400.
	r3, _ := http.Get(fx.api.URL + "/api/reviewer")
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing name = %d", r3.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	fx := newAPIFixture(t)
	// Generate some traffic: one success, one client error.
	http.Get(fx.api.URL + "/api/expand?keyword=rdf")
	http.Get(fx.api.URL + "/api/expand")
	resp, err := http.Get(fx.api.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	rs, ok := stats.Routes["expand"]
	if !ok {
		t.Fatalf("expand route missing: %v", stats.RouteOrder)
	}
	if rs.Count != 2 || rs.Errors != 1 {
		t.Fatalf("expand stats = %+v", rs)
	}
	var bucketTotal int64
	for _, b := range rs.Buckets {
		bucketTotal += b
	}
	if bucketTotal != rs.Count {
		t.Fatalf("histogram total %d != count %d", bucketTotal, rs.Count)
	}
	if stats.Fetch == nil {
		t.Fatal("fetch stats missing (fetcher is wired in fixture)")
	}
	if len(stats.BucketBounds) != len(rs.Buckets) {
		t.Fatalf("bounds %d vs buckets %d", len(stats.BucketBounds), len(rs.Buckets))
	}
}

func TestAssignEndpoint(t *testing.T) {
	fx := newAPIFixture(t)
	// PC from the first conference with enough members.
	var pc []string
	for i := range fx.corpus.Venues {
		v := &fx.corpus.Venues[i]
		if v.Type == scholarly.Conference && len(v.PC) >= 10 {
			for _, id := range v.PC {
				pc = append(pc, fx.corpus.Scholar(id).Name.Full())
			}
			break
		}
	}
	if len(pc) == 0 {
		t.Fatal("no PC available")
	}
	// Two submissions by distinct corpus authors.
	var manuscripts []core.Manuscript
	for i := range fx.corpus.Scholars {
		s := &fx.corpus.Scholars[i]
		if len(manuscripts) == 2 {
			break
		}
		if len(s.Interests) == 0 || len(s.Publications) < 4 {
			continue
		}
		manuscripts = append(manuscripts, core.Manuscript{
			Title:    "Paper " + s.Name.Full(),
			Keywords: s.Interests[:1],
			Authors:  []core.Author{{Name: s.Name.Full(), Affiliation: s.CurrentAffiliation().Institution}},
		})
	}
	req := AssignRequest{
		Manuscripts:       manuscripts,
		PCMembers:         pc,
		ReviewersPerPaper: 2,
	}
	resp := postJSON(t, fx.api.URL+"/api/assign", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("assign = %d: %s", resp.StatusCode, e.Error)
	}
	var out AssignResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Papers) != 2 {
		t.Fatalf("papers = %d", len(out.Papers))
	}
	pcSet := map[string]bool{}
	for _, n := range pc {
		pcSet[strings.ToLower(n)] = true
	}
	for i, p := range out.Papers {
		if len(p.Reviewers) != 2 {
			t.Fatalf("paper %d got %d reviewers", i, len(p.Reviewers))
		}
		for _, r := range p.Reviewers {
			if !pcSet[strings.ToLower(r.Name)] {
				t.Fatalf("assigned non-PC reviewer %q", r.Name)
			}
			for _, a := range manuscripts[i].Authors {
				if strings.EqualFold(r.Name, a.Name) {
					t.Fatalf("author %q assigned to own paper", a.Name)
				}
			}
		}
	}
	if out.MaxLoad <= 0 || out.TotalAffinity < 0 {
		t.Fatalf("metrics = %+v", out)
	}
}

func TestAssignValidation(t *testing.T) {
	fx := newAPIFixture(t)
	for _, req := range []AssignRequest{
		{},
		{Manuscripts: []core.Manuscript{{Keywords: []string{"rdf"}, Authors: []core.Author{{Name: "X"}}}}},
		{PCMembers: []string{"A"}},
	} {
		resp := postJSON(t, fx.api.URL+"/api/assign", req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("invalid assign request accepted: %d", resp.StatusCode)
		}
	}
	// Unknown solver.
	resp := postJSON(t, fx.api.URL+"/api/assign", AssignRequest{
		Manuscripts: []core.Manuscript{{Keywords: []string{"rdf"}, Authors: []core.Author{{Name: "X"}}}},
		PCMembers:   []string{"Someone"},
		Solver:      "quantum",
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown solver accepted: %d", resp.StatusCode)
	}
}

func TestInvalidateCacheEndpoint(t *testing.T) {
	fx := newAPIFixture(t)
	resp := postJSON(t, fx.api.URL+"/api/invalidate-cache", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate = %d", resp.StatusCode)
	}
	// GET is rejected.
	r2, _ := http.Get(fx.api.URL + "/api/invalidate-cache")
	r2.Body.Close()
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET invalidate = %d", r2.StatusCode)
	}
}

func TestInvalidateCacheUnwired(t *testing.T) {
	// A server without a fetch client still clears the shared caches
	// and reports the fetch layer as skipped.
	o := ontology.Default()
	f := fetch.New(fetch.Options{})
	reg := sources.DefaultRegistry(f, sources.SingleHost("http://127.0.0.1:1"))
	bare := New(reg, o, core.Config{}, 2018)
	srv := httptest.NewServer(bare.Handler())
	defer srv.Close()
	resp := postJSON(t, srv.URL+"/api/invalidate-cache", struct{}{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unwired invalidate = %d", resp.StatusCode)
	}
	var body map[string]string
	json.NewDecoder(resp.Body).Decode(&body)
	if !strings.Contains(body["fetch"], "skipped") {
		t.Fatalf("fetch layer not reported skipped: %+v", body)
	}
}

func TestConferenceModeViaAPI(t *testing.T) {
	fx := newAPIFixture(t)
	a := fx.author(t)
	// PC from the first conference.
	var pc []string
	for i := range fx.corpus.Venues {
		v := &fx.corpus.Venues[i]
		if v.Type == scholarly.Conference {
			for _, id := range v.PC {
				pc = append(pc, fx.corpus.Scholar(id).Name.Full())
			}
			break
		}
	}
	req := RecommendRequest{
		Manuscript: core.Manuscript{
			Keywords: a.Interests[:1],
			Authors:  []core.Author{{Name: a.Name.Full()}},
		},
		RecommendOptions: RecommendOptions{PCMembers: pc, TopK: 10},
	}
	resp := postJSON(t, fx.api.URL+"/api/recommend", req)
	defer resp.Body.Close()
	var res core.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	pcSet := map[string]bool{}
	for _, n := range pc {
		pcSet[strings.ToLower(n)] = true
	}
	for _, rec := range res.Recommendations {
		if !pcSet[strings.ToLower(rec.Reviewer.Name)] {
			t.Fatalf("non-PC member %q recommended", rec.Reviewer.Name)
		}
	}
}
