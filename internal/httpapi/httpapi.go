// Package httpapi exposes MINARET as RESTful APIs plus a minimal web
// form, mirroring the paper's deployment (Section 3: "available both as
// a Web application as well as RESTful APIs").
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"minaret/internal/adapt"
	"minaret/internal/coi"
	"minaret/internal/core"
	"minaret/internal/feed"
	"minaret/internal/fetch"
	"minaret/internal/filter"
	"minaret/internal/jobs"
	"minaret/internal/nameres"
	"minaret/internal/ontology"
	"minaret/internal/ranking"
	"minaret/internal/sources"
)

// DefaultMaxBodyBytes caps how much of a POST body any handler will
// read (8 MiB); see SetMaxBodyBytes.
const DefaultMaxBodyBytes = 8 << 20

// RecommendRequest is the POST /api/recommend body: the manuscript form
// of the demo's Figure 3 plus the editor's configuration knobs.
type RecommendRequest struct {
	core.Manuscript
	RecommendOptions
}

// RecommendOptions are the per-request configuration knobs shared by
// the single-manuscript and batch endpoints.
type RecommendOptions struct {
	// TopK bounds the returned list (default 10).
	TopK int `json:"top_k,omitempty"`
	// MinKeywordScore is the expansion-similarity threshold.
	MinKeywordScore float64 `json:"min_keyword_score,omitempty"`
	// COILevel is "off", "university" (default) or "country".
	COILevel string `json:"coi_level,omitempty"`
	// COICoAuthorYears windows the co-authorship rule (0 = any time).
	COICoAuthorYears int `json:"coi_coauthor_years,omitempty"`
	// DisableExpansion turns semantic keyword expansion off.
	DisableExpansion bool `json:"disable_expansion,omitempty"`
	// Expertise constraints (citation/h-index/review ranges).
	Expertise filter.ExpertiseConstraints `json:"expertise,omitempty"`
	// Weights for the ranking fusion; zero value uses defaults.
	Weights ranking.Weights `json:"weights,omitempty"`
	// ImpactMetric is "citations" (default) or "h-index".
	ImpactMetric string `json:"impact_metric,omitempty"`
	// PCMembers switches to conference mode when non-empty.
	PCMembers []string `json:"pc_members,omitempty"`
	// DiversityLambda in (0,1) enables MMR diversification of the top-k
	// panel (institution/country/interest spread).
	DiversityLambda float64 `json:"diversity_lambda,omitempty"`
	// BlockedReviewers are names the editor excludes outright (manual
	// conflict list / authors' opposed reviewers).
	BlockedReviewers []string `json:"blocked_reviewers,omitempty"`
}

// VerifyRequest is the POST /api/verify-authors body.
type VerifyRequest struct {
	Authors []core.Author `json:"authors"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Server wires the engine dependencies behind an http.Handler.
type Server struct {
	registry    *sources.Registry
	ont         *ontology.Ontology
	base        core.Config
	horizonYear int
	fetcher     *fetch.Client
	tele        *telemetry
	// shared is the server-wide cross-request cache set: every
	// recommend and batch request runs through it, so concurrent
	// traffic amortizes expansion, verification and profile assembly.
	shared *core.Shared
	// restore, when non-nil, is the boot-time snapshot restore outcome,
	// reported in /api/stats' shared block.
	restore *core.RestoreStats
	// jobs, when non-nil, backs the /v1/jobs routes (see EnableJobs);
	// jobsRestore is the boot-time store restore outcome, reported in
	// /api/stats' jobs block.
	jobs        *jobs.Queue
	jobsRestore *jobs.RestoreStats
	// sched, when non-nil, backs the /v1/schedules routes (see
	// EnableSchedules); schedRestore is the boot-time schedule-store
	// restore outcome, reported in /api/stats' schedules block.
	sched        *jobs.Scheduler
	schedRestore *jobs.ScheduleRestoreStats
	// watches, when non-nil, backs the /v1/watches routes (see
	// EnableWatches); watchRestore is the boot-time watch-store restore
	// outcome, reported in /api/stats' watches block.
	watches      *jobs.Watcher
	watchRestore *jobs.WatchRestoreStats
	// feedStats, when non-nil, reports the change-feed follower for
	// /api/stats (see SetFeedStats).
	feedStats func() feed.FollowerStats
	// streams tracks live SSE connections for stats and drain;
	// sseHeartbeat is the idle-comment interval.
	streams      *streamSet
	sseHeartbeat time.Duration
	// adapt, when non-nil, is the self-adaptation controller backing
	// /api/adapt and the stats adapt block (see SetAdapt).
	adapt *adapt.Controller
	// maxBody bounds every POST body via http.MaxBytesReader; <= 0
	// disables the cap.
	maxBody int64
	// shard, when non-empty, names this process in a cluster (-shard);
	// surfaced in /api/stats so the router's merged view can attribute
	// each block.
	shard string
}

// SetShard records this process's cluster shard name for /api/stats.
// Call before Handler sees traffic.
func (s *Server) SetShard(name string) { s.shard = name }

// SetFetcher wires the shared fetch client so the API can expose cache
// invalidation: the framework serves "up-to-date information" by design,
// and an editor can force a fresh extraction for an in-flight decision.
func (s *Server) SetFetcher(f *fetch.Client) { s.fetcher = f }

// SetShared replaces the server's cross-request cache set — the binary
// builds one with per-cache TTLs and a snapshot warm-start, then hands
// it over before serving. restore (may be nil) is the boot restore
// outcome to surface in /api/stats. Call before Handler sees traffic.
func (s *Server) SetShared(sh *core.Shared, restore *core.RestoreStats) {
	if sh != nil {
		s.shared = sh
	}
	s.restore = restore
}

// Shared returns the server-wide cross-request cache set, so the
// owning binary can snapshot it on shutdown.
func (s *Server) Shared() *core.Shared { return s.shared }

// New builds a Server. base supplies defaults that per-request options
// override; horizonYear anchors recency and COI windows.
func New(registry *sources.Registry, ont *ontology.Ontology, base core.Config, horizonYear int) *Server {
	return &Server{
		registry: registry, ont: ont, base: base, horizonYear: horizonYear,
		tele:         newTelemetry(),
		shared:       core.NewShared(core.SharedOptions{}),
		maxBody:      DefaultMaxBodyBytes,
		streams:      newStreamSet(),
		sseHeartbeat: DefaultSSEHeartbeat,
	}
}

// SetFeedStats wires a change-feed follower's stats snapshot into
// /api/stats' feed block. Call before Handler sees traffic.
func (s *Server) SetFeedStats(fn func() feed.FollowerStats) { s.feedStats = fn }

// SetMaxBodyBytes overrides the POST body cap (default
// DefaultMaxBodyBytes). An oversized body answers 413 instead of being
// decoded unbounded; n <= 0 disables the cap.
func (s *Server) SetMaxBodyBytes(n int64) { s.maxBody = n }

// limitBody applies the body cap. Handlers that decode POST bodies go
// through decodeBody; the invalidate handler (empty body allowed)
// calls this directly.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	if s.maxBody > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
}

// decodeBody caps and decodes a JSON POST body into v, answering 413
// (body over the cap) or 400 (malformed JSON) itself. Returns whether
// the handler should proceed.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return s.decode(w, r, v, false)
}

// decodeOptionalBody is decodeBody for routes whose body may be empty
// (v stays zero and the handler proceeds).
func (s *Server) decodeOptionalBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return s.decode(w, r, v, true)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any, allowEmpty bool) bool {
	s.limitBody(w, r)
	if r.Body == nil {
		if allowEmpty {
			return true
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "request body required"})
		return false
	}
	err := json.NewDecoder(r.Body).Decode(v)
	switch {
	case err == nil, allowEmpty && err == io.EOF:
		return true
	default:
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			})
			return false
		}
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid JSON: " + err.Error()})
		return false
	}
}

// Handler returns the routed handler. Every API route is instrumented;
// GET /api/stats reports the collected telemetry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/recommend", s.tele.instrument("recommend", s.handleRecommend))
	mux.HandleFunc("/api/verify-authors", s.tele.instrument("verify-authors", s.handleVerify))
	mux.HandleFunc("/api/expand", s.tele.instrument("expand", s.handleExpand))
	mux.HandleFunc("/api/assign", s.tele.instrument("assign", s.handleAssign))
	mux.HandleFunc("/api/reviewer", s.tele.instrument("reviewer", s.handleReviewer))
	mux.HandleFunc("/api/invalidate-cache", s.tele.instrument("invalidate-cache", s.handleInvalidate))
	mux.HandleFunc("/v1/batch", s.tele.instrument("batch", s.handleBatch))
	mux.HandleFunc("/v1/jobs", s.tele.instrument("jobs", s.handleJobs))
	mux.HandleFunc("/v1/jobs/", s.tele.instrument("jobs", s.handleJobByID))
	mux.HandleFunc("/v1/schedules", s.tele.instrument("schedules", s.handleSchedules))
	mux.HandleFunc("/v1/schedules/", s.tele.instrument("schedules", s.handleScheduleByID))
	mux.HandleFunc("/v1/watches", s.tele.instrument("watches", s.handleWatches))
	mux.HandleFunc("/v1/watches/", s.tele.instrument("watches", s.handleWatchByID))
	mux.HandleFunc("/api/adapt", s.handleAdapt)
	mux.HandleFunc("/api/stats", s.handleStats)
	mux.HandleFunc("/api/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/", s.handleIndex)
	return mux
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	var req RecommendRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	cfg, err := s.configFor(&req.RecommendOptions)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	engine := core.NewWithShared(s.registry, s.ont, cfg, s.shared)
	res, err := engine.Recommend(r.Context(), req.Manuscript)
	if err != nil {
		status := http.StatusInternalServerError
		if isValidation(err) {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// configFor maps request options onto the base engine config.
func (s *Server) configFor(req *RecommendOptions) (core.Config, error) {
	cfg := s.base
	if req.TopK > 0 {
		cfg.TopK = req.TopK
	}
	cfg.DisableExpansion = cfg.DisableExpansion || req.DisableExpansion
	if req.DiversityLambda != 0 {
		if req.DiversityLambda < 0 || req.DiversityLambda >= 1 {
			return cfg, fmt.Errorf("diversity_lambda %v out of (0,1)", req.DiversityLambda)
		}
		cfg.DiversityLambda = req.DiversityLambda
	}

	fcfg := cfg.Filter
	if fcfg.COI.HorizonYear == 0 {
		fcfg.COI = coi.DefaultConfig(s.horizonYear)
	}
	switch strings.ToLower(req.COILevel) {
	case "":
		// keep base
	case "off":
		fcfg.COI.CoAuthorship = false
		fcfg.COI.Affiliation = coi.AffiliationOff
	case "university":
		fcfg.COI.Affiliation = coi.AffiliationUniversity
	case "country":
		fcfg.COI.Affiliation = coi.AffiliationCountry
	default:
		return cfg, fmt.Errorf("unknown coi_level %q (want off|university|country)", req.COILevel)
	}
	if req.COICoAuthorYears > 0 {
		fcfg.COI.CoAuthorWindowYears = req.COICoAuthorYears
	}
	if req.MinKeywordScore > 0 {
		fcfg.MinKeywordScore = req.MinKeywordScore
	}
	if req.Expertise != (filter.ExpertiseConstraints{}) {
		fcfg.Expertise = req.Expertise
	}
	if len(req.PCMembers) > 0 {
		fcfg.PCMembers = req.PCMembers
	}
	if len(req.BlockedReviewers) > 0 {
		fcfg.BlockedReviewers = req.BlockedReviewers
	}
	cfg.Filter = fcfg

	rcfg := cfg.Ranking
	if rcfg.HorizonYear == 0 {
		rcfg.HorizonYear = s.horizonYear
	}
	if req.Weights != (ranking.Weights{}) {
		rcfg.Weights = req.Weights
	}
	switch strings.ToLower(req.ImpactMetric) {
	case "":
	case "citations":
		rcfg.Impact = ranking.ImpactCitations
	case "h-index", "hindex":
		rcfg.Impact = ranking.ImpactHIndex
	default:
		return cfg, fmt.Errorf("unknown impact_metric %q (want citations|h-index)", req.ImpactMetric)
	}
	if err := rcfg.Validate(); err != nil {
		return cfg, err
	}
	cfg.Ranking = rcfg
	return cfg, nil
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	var req VerifyRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Authors) == 0 {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "authors required"})
		return
	}
	verifier := nameres.NewVerifier(s.registry, s.base.Verify)
	queries := make([]nameres.Query, len(req.Authors))
	for i, a := range req.Authors {
		queries[i] = nameres.Query{Name: a.Name, Affiliation: a.Affiliation}
	}
	writeJSON(w, http.StatusOK, verifier.VerifyAll(r.Context(), queries))
}

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	kw := r.URL.Query().Get("keyword")
	if kw == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "keyword parameter required"})
		return
	}
	opts := s.base.Expansion
	opts.IncludeSeed = true
	writeJSON(w, http.StatusOK, s.ont.Expand(kw, opts))
}

// InvalidateRequest is the optional POST /api/invalidate-cache body.
// An empty body (or "all") drops everything — the fetch cache plus all
// four shared caches. Naming one shared cache drops just it and leaves
// the fetch cache alone: selective invalidation refreshes one kind of
// derived data (say, profiles with stale citation counts) without
// forcing the whole venue to re-scrape.
type InvalidateRequest struct {
	// Cache is "profiles", "verifies", "expansions", "retrievals" or
	// "all" (the default).
	Cache string `json:"cache,omitempty"`
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return
	}
	var req InvalidateRequest
	// An empty body means "all"; a present body must parse and obey the
	// size cap like every other POST.
	if !s.decodeOptionalBody(w, r, &req) {
		return
	}
	switch req.Cache {
	case "", "all":
		// The derived caches hold parsed views of the fetched pages; a
		// forced fresh extraction must drop them too. Clearing them is
		// useful even embedded without a fetch client, so that case
		// succeeds and reports the fetch layer as skipped.
		s.shared.Clear()
		resp := map[string]string{"status": "cache invalidated", "cache": "all"}
		if s.fetcher != nil {
			s.fetcher.InvalidateCache()
		} else {
			resp["fetch"] = "skipped: no fetch client wired"
		}
		writeJSON(w, http.StatusOK, resp)
	default:
		if err := s.shared.ClearNamed(req.Cache); err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "cache invalidated", "cache": req.Cache})
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

// writeJSON answers with v as compact JSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func isValidation(err error) bool {
	var vErr *json.UnmarshalTypeError
	if errors.As(err, &vErr) {
		return true
	}
	return strings.Contains(err.Error(), "manuscript:")
}

// indexHTML is the demo form: the Figure 3 manuscript-details page,
// reduced to essentials.
const indexHTML = `<!DOCTYPE html>
<html>
<head><title>MINARET — Reviewer Recommendation</title>
<style>
body { font-family: sans-serif; max-width: 760px; margin: 2em auto; }
label { display: block; margin-top: 0.8em; font-weight: bold; }
input, textarea { width: 100%; padding: 0.4em; }
button { margin-top: 1em; padding: 0.6em 1.4em; }
pre { background: #f4f4f4; padding: 1em; overflow-x: auto; }
</style></head>
<body>
<h1>MINARET</h1>
<p>Enter the manuscript details; the framework extracts reviewer
candidates from the scholarly sources on-the-fly, filters conflicts of
interest, and ranks by the configured criteria.</p>
<form id="f">
<label>Title</label><input name="title" value="A Sample Submission">
<label>Keywords (comma-separated)</label><input name="keywords" value="rdf, stream processing">
<label>Authors (name @ affiliation; one per line)</label>
<textarea name="authors" rows="3">Lei Zhou @ University of Tartu</textarea>
<label>Target journal</label><input name="venue" value="">
<label>Top K</label><input name="topk" value="10">
<button type="submit">Recommend reviewers</button>
</form>
<pre id="out"></pre>
<script>
document.getElementById('f').addEventListener('submit', async (e) => {
  e.preventDefault();
  const fd = new FormData(e.target);
  const authors = (fd.get('authors') || '').split('\n').filter(x => x.trim()).map(line => {
    const [name, aff] = line.split('@');
    return {name: (name||'').trim(), affiliation: (aff||'').trim()};
  });
  const body = {
    title: fd.get('title'),
    keywords: (fd.get('keywords') || '').split(',').map(x => x.trim()).filter(x => x),
    authors: authors,
    target_venue: (fd.get('venue') || '').trim(),
    top_k: parseInt(fd.get('topk') || '10', 10)
  };
  const out = document.getElementById('out');
  out.textContent = 'extracting…';
  const resp = await fetch('/api/recommend', {method: 'POST', body: JSON.stringify(body)});
  out.textContent = JSON.stringify(await resp.json(), null, 2);
});
</script>
</body></html>
`
