// Package core is MINARET's recommendation pipeline: given a manuscript's
// basic information (keywords, author list with affiliations, target
// outlet) it runs the three phases of the paper's Figure 2 workflow —
// information extraction, filtering, and ranking — against the
// configured scholarly sources, entirely on-the-fly.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"minaret/internal/fetch"
	"minaret/internal/filter"
	"minaret/internal/keywords"
	"minaret/internal/nameres"
	"minaret/internal/ontology"
	"minaret/internal/profile"
	"minaret/internal/ranking"
	"minaret/internal/sources"
)

// Author is one manuscript author as entered on the submission form.
type Author struct {
	Name        string `json:"name"`
	Affiliation string `json:"affiliation"`
}

// Manuscript is the editor's input (the demo's Figure 3 form).
type Manuscript struct {
	Title string `json:"title"`
	// Keywords are the authors' 3-5 topic keywords. When empty, the
	// pipeline derives keywords from Title+Abstract.
	Keywords []string `json:"keywords"`
	// Abstract is optional free text; it substitutes for missing
	// keywords via extraction + ontology grounding.
	Abstract string   `json:"abstract,omitempty"`
	Authors  []Author `json:"authors"`
	// TargetVenue is the journal (or conference) the manuscript was
	// submitted to; it drives the outlet-familiarity ranking component.
	TargetVenue string `json:"target_venue"`
}

// Validate checks the manuscript has enough information to recommend on.
func (m *Manuscript) Validate() error {
	if len(m.Keywords) == 0 && strings.TrimSpace(m.Abstract) == "" {
		return errors.New("manuscript: keywords (or an abstract to derive them from) required")
	}
	if len(m.Authors) == 0 {
		return errors.New("manuscript: at least one author is required")
	}
	for i, a := range m.Authors {
		if strings.TrimSpace(a.Name) == "" {
			return fmt.Errorf("manuscript: author %d has empty name", i)
		}
	}
	return nil
}

// Config assembles the per-run policies of all phases.
type Config struct {
	// Expansion tunes the semantic keyword expansion.
	Expansion ontology.ExpandOptions
	// DisableExpansion retrieves on the literal keywords only (the E2
	// ablation).
	DisableExpansion bool
	// MaxExpandedKeywords caps how many expanded keywords are queried
	// (highest score first). Default 25.
	MaxExpandedKeywords int
	// Verify tunes author identity verification.
	Verify nameres.Options
	// Filter is the filtering policy.
	Filter filter.Config
	// Ranking is the ranking configuration; its TargetVenue is set from
	// the manuscript when empty.
	Ranking ranking.Config
	// MaxCandidates caps how many retrieved candidates get full profile
	// assembly (cost control). Default 150.
	MaxCandidates int
	// TopK is the number of recommendations returned. Default 10.
	TopK int
	// DiversityLambda, when in (0,1), re-ranks the top of the list with
	// maximal marginal relevance so the panel spans institutions and
	// countries instead of one lab; 0 (default) disables.
	DiversityLambda float64
	// Workers bounds extraction concurrency. Default 8.
	Workers int
	// EnrichProfiles controls whether candidates found via interest
	// search are cross-matched on the remaining sources to assemble a
	// fuller profile. Default true; disable for speed.
	EnrichProfiles *bool
}

// withDefaults fills zero values and clamps nonsense: every knob below
// must end up ≥1. A negative Workers would start zero goroutines and
// leave the fan-out dispatch blocking until ctx death (an effective
// hang); a negative MaxCandidates would panic slicing cands[:negative].
func (c Config) withDefaults() Config {
	if c.MaxExpandedKeywords <= 0 {
		c.MaxExpandedKeywords = 25
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 150
	}
	if c.TopK <= 0 {
		c.TopK = 10
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.EnrichProfiles == nil {
		t := true
		c.EnrichProfiles = &t
	}
	return c
}

// KeywordMatch records which expanded keyword retrieved a candidate and
// at what similarity score.
type KeywordMatch struct {
	Keyword string  `json:"keyword"`
	Score   float64 `json:"score"`
}

// Recommendation is one ranked reviewer with full score detail. In
// memory Reviewer points at the whole assembled profile (shared with
// the caches); encoded, it is the profile's summary (see MarshalJSON).
type Recommendation struct {
	Rank      int               `json:"rank"`
	Reviewer  *profile.Profile  `json:"reviewer"`
	Total     float64           `json:"total"`
	Breakdown ranking.Breakdown `json:"breakdown"`
	// Matches lists the expanded keywords that retrieved the reviewer.
	Matches []KeywordMatch `json:"matches"`
	// BestKeywordScore is the maximum match score.
	BestKeywordScore float64 `json:"best_keyword_score"`
}

// MarshalJSON encodes the recommendation with its reviewer reduced to
// profile.Summary: a slate names each reviewer and explains the score,
// and GET /api/reviewer serves the full track record on demand.
func (r Recommendation) MarshalJSON() ([]byte, error) {
	type fields Recommendation // the same fields, without this method
	// The outer fields shadow the embedded ones of the same key; Rank
	// is repeated only to keep "rank" the first key.
	return json.Marshal(struct {
		Rank     int              `json:"rank"`
		Reviewer *profile.Summary `json:"reviewer"`
		fields
	}{r.Rank, r.Reviewer.Summary(), fields(r)})
}

// Profiles is a list of assembled profiles, whole in memory and
// encoded as their summaries, like Recommendation.Reviewer.
type Profiles []*profile.Profile

// MarshalJSON encodes each profile as its profile.Summary.
func (ps Profiles) MarshalJSON() ([]byte, error) {
	if ps == nil {
		return []byte("null"), nil
	}
	out := make([]*profile.Summary, len(ps))
	for i, p := range ps {
		out[i] = p.Summary()
	}
	return json.Marshal(out)
}

// Excluded records a candidate removed during filtering.
type Excluded struct {
	Name    string          `json:"name"`
	Reasons []filter.Reason `json:"reasons"`
}

// PhaseStats captures per-phase timing and cardinality — the data behind
// the F2 experiment's workflow trace.
type PhaseStats struct {
	AuthorsVerified     int           `json:"authors_verified"`
	AuthorsAmbiguous    int           `json:"authors_ambiguous"`
	ExpandedKeywords    int           `json:"expanded_keywords"`
	CandidatesRetrieved int           `json:"candidates_retrieved"`
	ProfilesAssembled   int           `json:"profiles_assembled"`
	CandidatesFiltered  int           `json:"candidates_filtered"`
	CandidatesRanked    int           `json:"candidates_ranked"`
	ExtractionTime      time.Duration `json:"extraction_ns"`
	FilterTime          time.Duration `json:"filter_ns"`
	RankTime            time.Duration `json:"rank_ns"`
}

// Result is the complete pipeline output.
type Result struct {
	Manuscript Manuscript `json:"manuscript"`
	// AuthorVerification holds the per-author identity resolution, for
	// the Figure 4 confirmation UI.
	AuthorVerification []*nameres.Result `json:"author_verification"`
	// AuthorProfiles are the assembled track records of the authors
	// (encoded as summaries).
	AuthorProfiles Profiles `json:"author_profiles"`
	// DerivedKeywords records keywords extracted from the abstract when
	// the author supplied none (topic, source phrase, score).
	DerivedKeywords []keywords.Grounded `json:"derived_keywords,omitempty"`
	// Expanded is the merged expanded keyword list with scores.
	Expanded []ontology.MergedExpansion `json:"expanded"`
	// Recommendations are the top-k reviewers, best first.
	Recommendations []Recommendation `json:"recommendations"`
	// ExcludedCandidates explains the filtering decisions.
	ExcludedCandidates []Excluded `json:"excluded_candidates"`
	// Stats traces the workflow.
	Stats PhaseStats `json:"stats"`
	// SourceErrors aggregates extraction failures (source -> first error).
	SourceErrors map[string]string `json:"source_errors,omitempty"`
	// SourceErrorCounts counts every retrieval failure per source, not
	// just the first: SourceErrors says what went wrong, this says how
	// much — one failed query out of forty is degradation, thirty-nine
	// is a source outage the recommendations silently ignored.
	SourceErrorCounts map[string]int `json:"source_error_counts,omitempty"`
}

// Engine runs the pipeline against a source registry. An Engine is safe
// for concurrent use: it holds no per-request state, and its optional
// Shared caches are concurrency-safe.
type Engine struct {
	registry  *sources.Registry
	ont       *ontology.Ontology
	cfg       Config
	verifier  *nameres.Verifier
	assembler *profile.Assembler
	// shared, when non-nil, memoizes expansion, verification and profile
	// assembly across requests (see NewWithShared).
	shared *Shared
}

// New builds an Engine. ont must not be nil.
func New(registry *sources.Registry, ont *ontology.Ontology, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		registry:  registry,
		ont:       ont,
		cfg:       cfg,
		verifier:  nameres.NewVerifier(registry, cfg.Verify),
		assembler: profile.NewAssembler(registry, cfg.Workers),
	}
}

// NewWithShared builds an Engine whose expensive per-request
// computations (keyword expansion, identity verification, profile
// assembly) are memoized in shared, amortizing work across overlapping
// requests — the batch subsystem's common case. A nil shared degrades to
// New. Many Engines (with differing configs) may share one Shared.
func NewWithShared(registry *sources.Registry, ont *ontology.Ontology, cfg Config, shared *Shared) *Engine {
	e := New(registry, ont, cfg)
	e.shared = shared
	return e
}

// Config returns the engine's defaulted configuration.
func (e *Engine) Config() Config { return e.cfg }

// Shared returns the engine's cross-request cache set (nil when the
// engine was built with New).
func (e *Engine) Shared() *Shared { return e.shared }

// candidate accumulates retrieval state before profile assembly.
type candidate struct {
	name        string
	affiliation string
	siteIDs     map[string]string
	matches     map[string]float64 // expanded keyword -> score
	best        float64
	// ord is the creation sequence number; blockTokens are the name
	// tokens the clusterIndex has registered this candidate under.
	ord         int
	blockTokens []string
}

// Recommend runs the full pipeline.
//
// Cancellation contract: when ctx is cancelled mid-pipeline, Recommend
// returns ctx.Err() — never a silently-partial Result. The Phase-1
// fan-outs stop dispatching immediately and wait only for the already
// in-flight source calls (bounded by Config.Workers), which themselves
// honor ctx.
func (e *Engine) Recommend(ctx context.Context, m Manuscript) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := e.cfg.Ranking.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Manuscript: m, SourceErrors: map[string]string{}}

	// Keyword derivation: when the form arrives without keywords, ground
	// the title+abstract in the ontology and proceed as if the author
	// had entered the derived topics.
	if len(m.Keywords) == 0 {
		res.DerivedKeywords = keywords.FromText(e.ont, m.Title, m.Abstract, 5)
		if len(res.DerivedKeywords) == 0 {
			return nil, errors.New("core: no keywords could be derived from the abstract")
		}
		for _, g := range res.DerivedKeywords {
			m.Keywords = append(m.Keywords, g.Topic)
		}
		res.Manuscript = m
	}

	extractStart := time.Now()

	// Phase 1a: verify author identities and assemble their track
	// records (needed for COI detection).
	if err := e.verifyAuthors(ctx, m, res); err != nil {
		return nil, err
	}

	// Phase 1b: semantic keyword expansion.
	res.Expanded = e.expandKeywords(ctx, m.Keywords)
	res.Stats.ExpandedKeywords = len(res.Expanded)

	// Phase 1c: retrieve candidate reviewers by expanded interest.
	cands, err := e.retrieveCandidates(ctx, res.Expanded, res)
	if err != nil {
		return nil, err
	}
	res.Stats.CandidatesRetrieved = len(cands)

	// Phase 1d: assemble candidate profiles (bounded).
	profiles, err := e.assembleCandidates(ctx, cands)
	if err != nil {
		return nil, err
	}
	res.Stats.ProfilesAssembled = len(profiles)
	res.Stats.ExtractionTime = time.Since(extractStart)

	// Phase 2: filtering.
	filterStart := time.Now()
	kept := e.filterCandidates(profiles, res)
	res.Stats.CandidatesFiltered = len(res.ExcludedCandidates)
	res.Stats.FilterTime = time.Since(filterStart)

	// Phase 3: ranking.
	rankStart := time.Now()
	e.rankCandidates(kept, m, res)
	res.Stats.CandidatesRanked = len(kept)
	res.Stats.RankTime = time.Since(rankStart)

	return res, nil
}

func (e *Engine) verifyAuthors(ctx context.Context, m Manuscript, res *Result) error {
	queries := make([]nameres.Query, len(m.Authors))
	for i, a := range m.Authors {
		queries[i] = nameres.Query{Name: a.Name, Affiliation: a.Affiliation}
	}
	verified, err := e.verifyAll(ctx, queries)
	if err != nil {
		return err
	}
	res.AuthorVerification = verified
	for _, vr := range res.AuthorVerification {
		res.Stats.AuthorsVerified++
		if !vr.Resolved {
			res.Stats.AuthorsAmbiguous++
		}
		for src, msg := range vr.SourceErrors {
			if _, ok := res.SourceErrors[src]; !ok {
				res.SourceErrors[src] = msg
			}
		}
		best := vr.Best()
		if best == nil {
			continue
		}
		p, err := e.assembleProfile(ctx, best.SiteIDs)
		if err != nil {
			// A manuscript author we cannot profile weakens COI checking
			// but does not abort the run; record and continue.
			res.SourceErrors["author:"+vr.Query.Name] = err.Error()
			continue
		}
		// Authors typed their affiliation on the form; trust it over the
		// extracted consensus when present. Cached profiles are shared
		// across requests, so patch a copy, never the cached value.
		if vr.Query.Affiliation != "" && p.Affiliation == "" {
			patched := *p
			patched.Affiliation = vr.Query.Affiliation
			p = &patched
		}
		res.AuthorProfiles = append(res.AuthorProfiles, p)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}

// verifyAll resolves an author list concurrently, through the shared
// verification cache when one is wired. A cancelled ctx returns
// ctx.Err(): verification "succeeds" under a dying context by marking
// every source failed, and without this check those Backfill-padded
// unverified results would flow onward and be ranked as if the authors
// were genuinely unresolvable.
func (e *Engine) verifyAll(ctx context.Context, queries []nameres.Query) ([]*nameres.Result, error) {
	if e.shared == nil {
		out := e.verifier.VerifyAll(ctx, queries)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return out, nil
	}
	out, errs := fetch.Map(ctx, e.cfg.Workers, queries,
		func(ctx context.Context, q nameres.Query) (*nameres.Result, error) {
			return e.verifyIdentity(ctx, q), nil
		})
	// The worker fn never errors, so any error here is the pool
	// reporting cancellation for undispatched queries.
	if err := fetch.FirstError(errs); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nameres.Backfill(out, queries), nil
}

// expandKeywords expands the manuscript keywords, consulting the shared
// memo when one is wired. The returned slice may be shared across
// requests and must be treated as read-only.
func (e *Engine) expandKeywords(ctx context.Context, keywords []string) []ontology.MergedExpansion {
	if e.shared == nil {
		return e.expandKeywordsUncached(keywords)
	}
	expanded, err := e.shared.expansions.Do(ctx, e.expansionKey(keywords),
		func() ([]ontology.MergedExpansion, error) {
			return e.expandKeywordsUncached(keywords), nil
		})
	if err != nil {
		// Only a cancelled wait can error; expansion is pure CPU, so just
		// compute uncached rather than fail a request that may still have
		// time to finish (retrieval checks ctx next).
		return e.expandKeywordsUncached(keywords)
	}
	return expanded
}

func (e *Engine) expandKeywordsUncached(keywords []string) []ontology.MergedExpansion {
	if e.cfg.DisableExpansion {
		out := make([]ontology.MergedExpansion, 0, len(keywords))
		for _, kw := range keywords {
			out = append(out, ontology.MergedExpansion{
				Expansion: ontology.Expansion{
					Keyword: ontology.Normalize(kw), Score: 1.0, Relation: ontology.RelSelf,
				},
				Seeds: []string{ontology.Normalize(kw)},
			})
		}
		return out
	}
	opts := e.cfg.Expansion
	opts.IncludeSeed = true
	merged := e.ont.ExpandAll(keywords, opts)
	if len(merged) > e.cfg.MaxExpandedKeywords {
		merged = merged[:e.cfg.MaxExpandedKeywords]
	}
	return merged
}

// retrieveCandidates queries every interest-capable source for every
// expanded keyword (through the shared retrieval memo when wired) and
// clusters hits into candidates with the indexed clusterer.
//
// The fan-out is cancellation-correct: a cancelled ctx stops dispatch
// immediately, waits only for the calls already in flight (at most
// Config.Workers, each of which honors ctx itself), and returns
// ctx.Err() — partial hit sets are never ranked as if complete.
func (e *Engine) retrieveCandidates(ctx context.Context, expanded []ontology.MergedExpansion, res *Result) ([]*candidate, error) {
	searchers := e.registry.InterestSearchers()
	if len(searchers) == 0 {
		return nil, errors.New("core: no interest-capable sources registered")
	}
	type query struct {
		kw    string
		score float64
		src   sources.InterestSearcher
	}
	var queries []query
	for _, ex := range expanded {
		for _, s := range searchers {
			queries = append(queries, query{kw: ex.Keyword, score: ex.Score, src: s})
		}
	}
	type qres struct {
		hits []sources.Hit
		err  error
	}
	results := make([]qres, len(queries))
	// Bounded fan-out over (keyword × source): workers pull query
	// indices, so cancellation leaves at most len(workers) calls to
	// drain instead of the full keyword × source product.
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := e.cfg.Workers
	if workers > len(queries) {
		workers = len(queries)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// The dispatch select can race a freed worker against
				// cancellation; never touch a source once ctx is dead.
				if ctx.Err() != nil {
					continue
				}
				q := queries[i]
				hits, err := e.searchInterest(ctx, q.src, q.kw)
				results[i] = qres{hits: hits, err: err}
			}
		}()
	}
dispatch:
	for i := range queries {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// Cancellation is the caller's signal, not a per-source failure:
		// surface it instead of ranking on whatever arrived in time.
		return nil, err
	}
	for i, qr := range results {
		if qr.err != nil {
			src := queries[i].src.Source()
			if _, ok := res.SourceErrors[src]; !ok {
				res.SourceErrors[src] = qr.err.Error()
			}
			if res.SourceErrorCounts == nil {
				res.SourceErrorCounts = make(map[string]int)
			}
			res.SourceErrorCounts[src]++
			if e.shared != nil {
				e.shared.countSourceError(src)
			}
		}
	}

	// Cluster hits into candidates across sources. Query order is
	// deterministic, so clustering is too.
	ix := newClusterIndex()
	for i, qr := range results {
		for _, h := range qr.hits {
			ix.add(h, queries[i].kw, queries[i].score)
		}
	}
	cands := ix.cands
	// Deterministic: best keyword score desc, then name.
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].best != cands[j].best {
			return cands[i].best > cands[j].best
		}
		return cands[i].name < cands[j].name
	})
	return cands, nil
}

// assembleCandidates builds full profiles for the top candidates,
// optionally enriching each with ids found on the non-interest sources.
// A cancelled ctx stops dispatching, drains the in-flight assemblies and
// returns ctx.Err(); individual unprofilable candidates are dropped.
func (e *Engine) assembleCandidates(ctx context.Context, cands []*candidate) (map[*candidate]*profile.Profile, error) {
	if len(cands) > e.cfg.MaxCandidates {
		cands = cands[:e.cfg.MaxCandidates]
	}
	assembled := make([]*profile.Profile, len(cands))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := e.cfg.Workers
	if workers > len(cands) {
		workers = len(cands)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue
				}
				c := cands[i]
				ids := c.siteIDs
				if *e.cfg.EnrichProfiles {
					vr := e.verifyIdentity(ctx, nameres.Query{Name: c.name, Affiliation: c.affiliation})
					if best := vr.Best(); best != nil && vr.Resolved {
						merged := map[string]string{}
						for s, id := range best.SiteIDs {
							merged[s] = id
						}
						// Interest-search ids win on conflict: they are the
						// ground the candidate stands on.
						for s, id := range ids {
							merged[s] = id
						}
						ids = merged
					}
				}
				p, err := e.assembleProfile(ctx, ids)
				if err != nil {
					continue // candidate unprofilable: drop
				}
				assembled[i] = p
			}
		}()
	}
dispatch:
	for i := range cands {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	profiles := make(map[*candidate]*profile.Profile, len(cands))
	for i, p := range assembled {
		if p != nil {
			profiles[cands[i]] = p
		}
	}
	return profiles, nil
}

// filterCandidates applies author-self exclusion plus the configured
// filter policy, returning kept candidates.
func (e *Engine) filterCandidates(profiles map[*candidate]*profile.Profile, res *Result) []*scoredProfile {
	f := filter.New(e.cfg.Filter)
	authors := f.Prepare(res.AuthorProfiles)
	authorNames := make([]nameres.Name, len(res.Manuscript.Authors))
	for i, a := range res.Manuscript.Authors {
		authorNames[i] = nameres.ParseName(a.Name)
	}
	// Deterministic iteration order.
	cands := make([]*candidate, 0, len(profiles))
	for c := range profiles {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].best != cands[j].best {
			return cands[i].best > cands[j].best
		}
		return cands[i].name < cands[j].name
	})

	var kept []*scoredProfile
	// Distinct retrieval candidates can resolve to one scholar (name
	// variants enriched to the same accounts) — with the shared profile
	// cache they then share one *Profile. Keep only the first (highest
	// best-score) occurrence so a person is never recommended twice and
	// downstream pointer-keyed maps stay one-to-one.
	seen := make(map[*profile.Profile]bool, len(cands))
	for _, c := range cands {
		p := profiles[c]
		if seen[p] {
			res.ExcludedCandidates = append(res.ExcludedCandidates, Excluded{
				Name:    p.Name,
				Reasons: []filter.Reason{{Kind: "duplicate-identity", Detail: "resolved to an already-kept candidate"}},
			})
			continue
		}
		seen[p] = true
		// A manuscript author can surface as their own reviewer
		// candidate; always exclude.
		isAuthor := false
		for _, a := range authorNames {
			if a.Matches(p.Name) {
				isAuthor = true
				break
			}
		}
		if isAuthor {
			res.ExcludedCandidates = append(res.ExcludedCandidates, Excluded{
				Name:    p.Name,
				Reasons: []filter.Reason{{Kind: "is-author", Detail: "candidate is a manuscript author"}},
			})
			continue
		}
		d := f.Evaluate(p, c.best, authors)
		if !d.Kept {
			res.ExcludedCandidates = append(res.ExcludedCandidates, Excluded{
				Name: p.Name, Reasons: d.Reasons,
			})
			continue
		}
		kept = append(kept, &scoredProfile{cand: c, prof: p})
	}
	return kept
}

type scoredProfile struct {
	cand *candidate
	prof *profile.Profile
}

func (e *Engine) rankCandidates(kept []*scoredProfile, m Manuscript, res *Result) {
	rcfg := e.cfg.Ranking
	if rcfg.TargetVenue == "" {
		rcfg.TargetVenue = m.TargetVenue
	}
	ranker := ranking.New(rcfg, e.ont)
	type rankedEntry struct {
		sp *scoredProfile
		bd ranking.Breakdown
	}
	entries := make([]rankedEntry, len(kept))
	for i, sp := range kept {
		entries[i] = rankedEntry{sp: sp, bd: ranker.Score(sp.prof, m.Keywords)}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].bd.Total != entries[j].bd.Total {
			return entries[i].bd.Total > entries[j].bd.Total
		}
		return entries[i].sp.prof.Name < entries[j].sp.prof.Name
	})
	if l := e.cfg.DiversityLambda; l > 0 && l < 1 {
		rankedList := make([]ranking.Ranked, len(entries))
		byProfile := make(map[*profile.Profile]rankedEntry, len(entries))
		for i, en := range entries {
			rankedList[i] = ranking.Ranked{Reviewer: en.sp.prof, Breakdown: en.bd}
			byProfile[en.sp.prof] = en
		}
		diversified := ranking.Diversify(rankedList, ranking.DiversifyOptions{
			Lambda: l, K: e.cfg.TopK,
		})
		for i, r := range diversified {
			entries[i] = byProfile[r.Reviewer]
		}
	}
	topK := e.cfg.TopK
	if topK > len(entries) {
		topK = len(entries)
	}
	for i := 0; i < topK; i++ {
		en := entries[i]
		matches := make([]KeywordMatch, 0, len(en.sp.cand.matches))
		for kw, sc := range en.sp.cand.matches {
			matches = append(matches, KeywordMatch{Keyword: kw, Score: sc})
		}
		sort.Slice(matches, func(a, b int) bool {
			if matches[a].Score != matches[b].Score {
				return matches[a].Score > matches[b].Score
			}
			return matches[a].Keyword < matches[b].Keyword
		})
		res.Recommendations = append(res.Recommendations, Recommendation{
			Rank:             i + 1,
			Reviewer:         en.sp.prof,
			Total:            en.bd.Total,
			Breakdown:        en.bd,
			Matches:          matches,
			BestKeywordScore: en.sp.cand.best,
		})
	}
}
