// Benchmarks regenerating the performance-relevant side of every figure
// and experiment in DESIGN.md's index. Run with:
//
//	go test -bench=. -benchmem
//
// Mapping (see DESIGN.md §4): F1 BenchmarkCorpusGenerate, F2
// BenchmarkPipelineEndToEnd, F4 BenchmarkNameVerification, F5
// BenchmarkRankCandidates, E1 BenchmarkBaselines + BenchmarkMinaretPipeline,
// E2 BenchmarkKeywordExpansion, E3 BenchmarkCOIDetection, E5
// BenchmarkSourceParsers / BenchmarkFetchPool / BenchmarkProfileAssembly.
package minaret_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"minaret/internal/assign"
	"minaret/internal/baselines"
	"minaret/internal/batch"
	"minaret/internal/coi"
	"minaret/internal/core"
	"minaret/internal/experiments"
	"minaret/internal/fetch"
	"minaret/internal/index"
	"minaret/internal/jobs"
	"minaret/internal/keywords"
	"minaret/internal/nameres"
	"minaret/internal/ontology"
	"minaret/internal/profile"
	"minaret/internal/ranking"
	"minaret/internal/scholarly"
	"minaret/internal/simweb"
	"minaret/internal/sources"
	"minaret/internal/workload"
)

// sharedEnv lazily builds one simulated world reused across benchmarks
// (building it per-benchmark would dominate the timings).
var sharedEnv *experiments.Env

func env(b *testing.B) *experiments.Env {
	b.Helper()
	if sharedEnv == nil {
		sharedEnv = experiments.NewEnv(experiments.EnvConfig{Seed: 1234, Scholars: 1000})
	}
	return sharedEnv
}

func sampleItem(b *testing.B, e *experiments.Env, seed int64) workload.Item {
	b.Helper()
	items := workload.NewGenerator(e.Corpus, e.Ont, workload.Config{
		Seed: seed, NumManuscripts: 1,
	}).Generate()
	return items[0]
}

// BenchmarkCorpusGenerate (F1): cost of synthesizing the scholarly world
// at several scales.
func BenchmarkCorpusGenerate(b *testing.B) {
	o := ontology.Default()
	topics, related := o.Topics(), o.RelatedMap()
	for _, n := range []int{500, 2000, 8000} {
		b.Run(fmt.Sprintf("scholars=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := scholarly.MustGenerate(scholarly.GeneratorConfig{
					Seed: int64(i), NumScholars: n, Topics: topics, Related: related,
				})
				if len(c.Publications) == 0 {
					b.Fatal("empty corpus")
				}
			}
		})
	}
}

// BenchmarkPipelineEndToEnd (F2): the complete extract-filter-rank
// workflow against the simulated web, cold cache each iteration.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	e := env(b)
	item := sampleItem(b, e, 9000)
	eng := e.Engine(core.Config{TopK: 10, MaxCandidates: 80})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Fetcher.InvalidateCache()
		res, err := eng.Recommend(context.Background(), item.Manuscript)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Recommendations) == 0 {
			b.Fatal("no recommendations")
		}
	}
}

// BenchmarkPipelineWarmCache (F2/E5): the same workflow with the fetch
// cache warm — the steady-state an editor session sees.
func BenchmarkPipelineWarmCache(b *testing.B) {
	e := env(b)
	item := sampleItem(b, e, 9001)
	eng := e.Engine(core.Config{TopK: 10, MaxCandidates: 80})
	if _, err := eng.Recommend(context.Background(), item.Manuscript); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Recommend(context.Background(), item.Manuscript); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNameVerification (F4): resolving an ambiguous author across
// all six sources.
func BenchmarkNameVerification(b *testing.B) {
	e := env(b)
	v := nameres.NewVerifier(e.Registry, nameres.Options{})
	// Use the most ambiguous popular name present.
	q := nameres.Query{Name: "Lei Zhou"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := v.Verify(context.Background(), q)
		_ = res.Candidates
	}
}

// BenchmarkRankCandidates (F5): pure ranking cost (no extraction) over a
// pre-assembled candidate pool.
func BenchmarkRankCandidates(b *testing.B) {
	e := env(b)
	item := sampleItem(b, e, 9002)
	eng := e.Engine(core.Config{TopK: 100000, MaxCandidates: 120})
	res, err := eng.Recommend(context.Background(), item.Manuscript)
	if err != nil {
		b.Fatal(err)
	}
	profiles := make([]*profile.Profile, 0, len(res.Recommendations))
	for _, rec := range res.Recommendations {
		profiles = append(profiles, rec.Reviewer)
	}
	rk := ranking.New(ranking.Config{
		HorizonYear: e.Corpus.HorizonYear,
		TargetVenue: item.Manuscript.TargetVenue,
	}, e.Ont)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked := rk.Rank(profiles, item.Manuscript.Keywords)
		if len(ranked) != len(profiles) {
			b.Fatal("rank lost candidates")
		}
	}
}

// BenchmarkMinaretPipeline and BenchmarkBaselines (E1): cost per
// recommendation for the full system and each comparator.
func BenchmarkMinaretPipeline(b *testing.B) {
	e := env(b)
	item := sampleItem(b, e, 9003)
	eng := e.Engine(core.Config{TopK: 20, MaxCandidates: 120})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Recommend(context.Background(), item.Manuscript); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselines(b *testing.B) {
	e := env(b)
	item := sampleItem(b, e, 9004)
	q := baselines.Query{Keywords: item.Manuscript.Keywords, AuthorIDs: item.AuthorIDs, ExcludeCOI: true}
	for _, bl := range baselines.All(e.Ont, 5) {
		b.Run(bl.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ids := bl.Rank(e.Corpus, q, 20)
				_ = ids
			}
		})
	}
}

// BenchmarkKeywordExpansion (E2): semantic expansion cost per keyword
// set, with and without result caps.
func BenchmarkKeywordExpansion(b *testing.B) {
	o := ontology.Default()
	kws := []string{"rdf", "stream processing", "machine learning"}
	b.Run("expand-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := o.ExpandAll(kws, ontology.ExpandOptions{IncludeSeed: true})
			if len(m) == 0 {
				b.Fatal("empty expansion")
			}
		}
	})
	b.Run("similarity-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if o.Similarity("rdf", "sparql") == 0 {
				b.Fatal("similarity lost")
			}
		}
	})
}

// BenchmarkCOIDetection (E3): conflict checking 63 reviewers against
// one author list, which is prepared once per iteration the way the
// filter phase prepares it once per manuscript.
func BenchmarkCOIDetection(b *testing.B) {
	e := env(b)
	// Build profiles straight from corpus ground truth (no HTTP).
	mk := func(id scholarly.ScholarID) *profile.Profile {
		s := e.Corpus.Scholar(id)
		p := &profile.Profile{Name: s.Name.Full()}
		for _, a := range s.Affiliations {
			p.AffiliationHistory = append(p.AffiliationHistory, sources.AffPeriod{
				Institution: a.Institution, Country: a.Country,
				StartYear: a.StartYear, EndYear: a.EndYear,
			})
		}
		for _, pid := range s.Publications {
			pub := e.Corpus.Publication(pid)
			var coAuthors []string
			for _, a := range pub.Authors {
				coAuthors = append(coAuthors, e.Corpus.Scholar(a).Name.Full())
			}
			p.Publications = append(p.Publications, profile.Publication{
				Title: pub.Title, Year: pub.Year, CoAuthors: coAuthors,
			})
		}
		return p
	}
	author := mk(0)
	var reviewers []*profile.Profile
	for id := scholarly.ScholarID(1); id < 64; id++ {
		reviewers = append(reviewers, mk(id))
	}
	det := coi.NewDetector(coi.DefaultConfig(e.Corpus.HorizonYear))
	authors := []*profile.Profile{author}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prepared := det.Prepare(authors)
		for _, r := range reviewers {
			_ = prepared.Detect(r)
		}
	}
}

// BenchmarkSourceParsers (E5): per-format parse cost — XML (DBLP), HTML
// (Google Scholar), JSON (Publons) — over realistic profile payloads.
func BenchmarkSourceParsers(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	// Fetch one representative payload per source (cache keeps it hot,
	// so the benchmark measures fetch-layer + parse, not the network).
	var rich *scholarly.Scholar
	for i := range e.Corpus.Scholars {
		s := &e.Corpus.Scholars[i]
		if s.Presence.Count() == 6 && len(s.Publications) > 10 {
			rich = s
			break
		}
	}
	if rich == nil {
		b.Fatal("no rich scholar")
	}
	for _, src := range []string{"dblp", "scholar", "publons", "acm", "orcid", "rid"} {
		cl, _ := e.Registry.Get(src)
		id := map[string]func(scholarly.ScholarID) string{
			"dblp": simwebDBLP, "scholar": simwebScholar, "publons": simwebPublons,
			"acm": simwebACM, "orcid": simwebORCID, "rid": simwebRID,
		}[src](rich.ID)
		b.Run(src, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec, err := cl.Profile(ctx, id)
				if err != nil {
					b.Fatal(err)
				}
				_ = rec
			}
		})
	}
}

// BenchmarkFetchPool (E5): the bounded-concurrency fetch substrate at
// several worker counts over 64 cached URLs.
func BenchmarkFetchPool(b *testing.B) {
	e := env(b)
	var urls []string
	for i := range e.Corpus.Scholars {
		if e.Corpus.Scholars[i].Presence.Publons {
			urls = append(urls, fmt.Sprintf("%s/publons/api/researcher/%s/",
				e.BaseURL(), simwebPublons(scholarly.ScholarID(i))))
			if len(urls) == 64 {
				break
			}
		}
	}
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, errs := fetch.Map(context.Background(), workers, urls,
					func(ctx context.Context, u string) ([]byte, error) {
						return e.Fetcher.Get(ctx, u)
					})
				if n := fetch.CountErrors(errs); n > 0 {
					b.Fatalf("%d fetches failed", n)
				}
			}
		})
	}
}

// BenchmarkProfileAssembly (E5): merging all six source records into one
// unified profile (cache-hot).
func BenchmarkProfileAssembly(b *testing.B) {
	e := env(b)
	var rich *scholarly.Scholar
	for i := range e.Corpus.Scholars {
		s := &e.Corpus.Scholars[i]
		if s.Presence.Count() == 6 && len(s.Publications) > 10 {
			rich = s
			break
		}
	}
	asm := profile.NewAssembler(e.Registry, 6)
	ids := map[string]string{
		"dblp": simwebDBLP(rich.ID), "scholar": simwebScholar(rich.ID),
		"publons": simwebPublons(rich.ID), "acm": simwebACM(rich.ID),
		"orcid": simwebORCID(rich.ID), "rid": simwebRID(rich.ID),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := asm.Assemble(context.Background(), ids)
		if err != nil {
			b.Fatal(err)
		}
		_ = p
	}
}

// BenchmarkBatchPipeline: a submission queue (6 overlapping manuscripts
// from one venue's workload) processed as a batch through one shared
// engine, against the same queue as N independent Recommend calls. The
// batch variants share expansion, verification and profile work via
// core.Shared; "warm" keeps both the fetch cache and the shared caches
// hot across iterations — the steady state of a loaded server.
func BenchmarkBatchPipeline(b *testing.B) {
	e := env(b)
	items := workload.NewGenerator(e.Corpus, e.Ont, workload.Config{
		Seed: 9100, NumManuscripts: 6,
	}).Generate()
	if len(items) < 6 {
		b.Fatalf("workload generated %d manuscripts", len(items))
	}
	ms := make([]core.Manuscript, len(items))
	for i, it := range items {
		ms[i] = it.Manuscript
	}
	cfg := core.Config{TopK: 10, MaxCandidates: 60}
	cfg.Filter.COI = coi.DefaultConfig(e.Corpus.HorizonYear)
	cfg.Ranking.HorizonYear = e.Corpus.HorizonYear
	ctx := context.Background()

	runAll := func(b *testing.B, eng *core.Engine) {
		b.Helper()
		for _, m := range ms {
			if _, err := eng.Recommend(ctx, m); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("independent-cold", func(b *testing.B) {
		eng := core.New(e.Registry, e.Ont, cfg)
		for i := 0; i < b.N; i++ {
			e.Fetcher.InvalidateCache()
			runAll(b, eng)
		}
	})
	b.Run("independent-warm", func(b *testing.B) {
		eng := core.New(e.Registry, e.Ont, cfg)
		runAll(b, eng)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runAll(b, eng)
		}
	})
	b.Run("batch-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Fetcher.InvalidateCache()
			shared := core.NewShared(core.SharedOptions{})
			proc := batch.New(core.NewWithShared(e.Registry, e.Ont, cfg, shared), batch.Options{Workers: 4})
			if sum := proc.Process(ctx, ms); sum.Succeeded != len(ms) {
				b.Fatalf("batch succeeded %d/%d", sum.Succeeded, len(ms))
			}
		}
	})
	b.Run("batch-warm", func(b *testing.B) {
		shared := core.NewShared(core.SharedOptions{})
		proc := batch.New(core.NewWithShared(e.Registry, e.Ont, cfg, shared), batch.Options{Workers: 4})
		if sum := proc.Process(ctx, ms); sum.Succeeded != len(ms) {
			b.Fatalf("batch succeeded %d/%d", sum.Succeeded, len(ms))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sum := proc.Process(ctx, ms); sum.Succeeded != len(ms) {
				b.Fatalf("batch succeeded %d/%d", sum.Succeeded, len(ms))
			}
		}
	})
	// The indexed variants run the same batches over a persistent
	// retrieval index (built once, outside the timer — the cost the
	// -index-build flag amortizes across server lifetimes). Cold-indexed
	// is the interesting one: retrieval is answered from the index while
	// verification and profile assembly still hit the cold web.
	ix, _, err := index.Build(ctx, e.Registry, e.Ont.Labels(), index.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batch-cold-indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.Fetcher.InvalidateCache()
			shared := core.NewShared(core.SharedOptions{})
			shared.SetRetrievalIndex(ix)
			proc := batch.New(core.NewWithShared(e.Registry, e.Ont, cfg, shared), batch.Options{Workers: 4})
			if sum := proc.Process(ctx, ms); sum.Succeeded != len(ms) {
				b.Fatalf("batch succeeded %d/%d", sum.Succeeded, len(ms))
			}
		}
	})
	b.Run("batch-warm-indexed", func(b *testing.B) {
		shared := core.NewShared(core.SharedOptions{})
		shared.SetRetrievalIndex(ix)
		proc := batch.New(core.NewWithShared(e.Registry, e.Ont, cfg, shared), batch.Options{Workers: 4})
		if sum := proc.Process(ctx, ms); sum.Succeeded != len(ms) {
			b.Fatalf("batch succeeded %d/%d", sum.Succeeded, len(ms))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sum := proc.Process(ctx, ms); sum.Succeeded != len(ms) {
				b.Fatalf("batch succeeded %d/%d", sum.Succeeded, len(ms))
			}
		}
	})
}

// BenchmarkWorkloadGenerate (E1-E4 input): ground-truth judgment cost.
func BenchmarkWorkloadGenerate(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := workload.NewGenerator(e.Corpus, e.Ont, workload.Config{
			Seed: int64(i), NumManuscripts: 5,
		}).Generate()
		if len(items) != 5 {
			b.Fatal("short workload")
		}
	}
}

// BenchmarkEnrichmentAblation: the cost of cross-matching interest-search
// candidates on the remaining sources (EnrichProfiles), one of the
// design choices DESIGN.md calls out — fuller profiles vs extra queries.
func BenchmarkEnrichmentAblation(b *testing.B) {
	e := env(b)
	item := sampleItem(b, e, 9006)
	for _, enrich := range []bool{true, false} {
		enrich := enrich
		name := "enrich=on"
		if !enrich {
			name = "enrich=off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{TopK: 10, MaxCandidates: 60, EnrichProfiles: &enrich}
			eng := e.Engine(cfg)
			for i := 0; i < b.N; i++ {
				e.Fetcher.InvalidateCache()
				if _, err := eng.Recommend(context.Background(), item.Manuscript); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExpansionAblation: retrieval cost with and without semantic
// keyword expansion (the E2 quality trade, here in wall-clock terms).
func BenchmarkExpansionAblation(b *testing.B) {
	e := env(b)
	item := sampleItem(b, e, 9007)
	for _, disable := range []bool{false, true} {
		name := "expansion=on"
		if disable {
			name = "expansion=off"
		}
		b.Run(name, func(b *testing.B) {
			eng := e.Engine(core.Config{TopK: 10, MaxCandidates: 60, DisableExpansion: disable})
			for i := 0; i < b.N; i++ {
				e.Fetcher.InvalidateCache()
				if _, err := eng.Recommend(context.Background(), item.Manuscript); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKeywordExtraction: RAKE extraction + ontology grounding over
// a realistic abstract (the missing-keywords intake path).
func BenchmarkKeywordExtraction(b *testing.B) {
	const abstract = `We present a system for scalable RDF stream
processing over distributed infrastructures. Our system compiles SPARQL
queries into dataflow programs and executes them over a shared-nothing
cluster, combining learned indexes with adaptive query optimization.
Experiments demonstrate improvements over existing stream processing
engines across synthetic and real workloads, while supporting linked
open data integration, entity resolution and provenance tracking.`
	ont := ontology.Default()
	b.Run("extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := keywords.Extract(abstract, keywords.Options{}); len(got) == 0 {
				b.Fatal("no phrases")
			}
		}
	})
	b.Run("extract+ground", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := keywords.FromText(ont, "RDF Stream Processing", abstract, 5); len(got) == 0 {
				b.Fatal("no grounded topics")
			}
		}
	})
}

// BenchmarkDiversify: MMR re-ranking cost over a 100-candidate pool.
func BenchmarkDiversify(b *testing.B) {
	e := env(b)
	item := sampleItem(b, e, 9005)
	eng := e.Engine(core.Config{TopK: 100000, MaxCandidates: 120})
	res, err := eng.Recommend(context.Background(), item.Manuscript)
	if err != nil {
		b.Fatal(err)
	}
	ranked := make([]ranking.Ranked, 0, len(res.Recommendations))
	for _, rec := range res.Recommendations {
		ranked = append(ranked, ranking.Ranked{Reviewer: rec.Reviewer, Breakdown: rec.Breakdown})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := ranking.Diversify(ranked, ranking.DiversifyOptions{Lambda: 0.7, K: 10})
		if len(out) != len(ranked) {
			b.Fatal("lost candidates")
		}
	}
}

// BenchmarkCorpusSerialize: snapshot save/load cost (cmd/simweb
// -save-corpus / -load-corpus).
func BenchmarkCorpusSerialize(b *testing.B) {
	e := env(b)
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := e.Corpus.Save(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	var buf bytes.Buffer
	if err := e.Corpus.Save(&buf); err != nil {
		b.Fatal(err)
	}
	snapshot := buf.Bytes()
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scholarly.Load(bytes.NewReader(snapshot)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCorpusGen: the corpusgen -tot-size path — pilot generation,
// size probes and the final corpus, at 1×/10×/100× byte budgets.
func BenchmarkCorpusGen(b *testing.B) {
	o := ontology.Default()
	for _, scale := range []struct {
		name   string
		target int64
	}{
		{"1x-64KB", 64 << 10},
		{"10x-640KB", 640 << 10},
		{"100x-6400KB", 6400 << 10},
	} {
		b.Run(scale.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := scholarly.GeneratorConfig{
					Seed: 7, Topics: o.Topics(), Related: o.RelatedMap(),
				}
				_, stats, err := scholarly.GenerateToSize(cfg, scale.target)
				if err != nil {
					b.Fatal(err)
				}
				if r := stats.RelErr(); r < -0.10 || r > 0.10 {
					b.Fatalf("size %.1f%% off target", 100*r)
				}
			}
		})
	}
}

// BenchmarkWarmBatch10x: the warm batch pipeline over a 10×-sized
// corpus — the steady state a rescrape-storm trace settles into once
// the shared caches hold the corpus.
func BenchmarkWarmBatch10x(b *testing.B) {
	o := ontology.Default()
	corpus, _, err := scholarly.GenerateToSize(scholarly.GeneratorConfig{
		Seed: 7, Topics: o.Topics(), Related: o.RelatedMap(),
	}, 640<<10)
	if err != nil {
		b.Fatal(err)
	}
	web := httptest.NewServer(simweb.New(corpus, simweb.Config{}).Mux())
	defer web.Close()
	f := fetch.New(fetch.Options{Timeout: 10 * time.Second, BaseBackoff: time.Millisecond, PerHostRate: -1})
	registry := sources.DefaultRegistry(f, sources.SingleHost(web.URL))

	items := workload.NewGenerator(corpus, o, workload.Config{
		Seed: 9200, NumManuscripts: 6,
	}).Generate()
	ms := make([]core.Manuscript, len(items))
	for i, it := range items {
		ms[i] = it.Manuscript
	}
	cfg := core.Config{TopK: 10, MaxCandidates: 60}
	cfg.Filter.COI = coi.DefaultConfig(corpus.HorizonYear)
	cfg.Ranking.HorizonYear = corpus.HorizonYear

	ctx := context.Background()
	shared := core.NewShared(core.SharedOptions{})
	proc := batch.New(core.NewWithShared(registry, o, cfg, shared), batch.Options{Workers: 4})
	if sum := proc.Process(ctx, ms); sum.Succeeded != len(ms) {
		b.Fatalf("batch succeeded %d/%d", sum.Succeeded, len(ms))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sum := proc.Process(ctx, ms); sum.Succeeded != len(ms) {
			b.Fatalf("batch succeeded %d/%d", sum.Succeeded, len(ms))
		}
	}
}

// BenchmarkAssignment (E7): batch paper-reviewer assignment solvers at
// conference scale.
func BenchmarkAssignment(b *testing.B) {
	mk := func(papers, reviewers int) *assign.Problem {
		p := &assign.Problem{
			NumPapers: papers, NumReviewers: reviewers,
			PerPaper: 3, Capacity: papers*3/reviewers + 2,
			Score: make([][]float64, papers),
		}
		for i := range p.Score {
			p.Score[i] = make([]float64, reviewers)
			for j := range p.Score[i] {
				p.Score[i][j] = float64((i*31+j*17)%100) / 100
			}
		}
		return p
	}
	for _, size := range []struct{ papers, reviewers int }{{50, 100}, {200, 150}} {
		p := mk(size.papers, size.reviewers)
		b.Run(fmt.Sprintf("greedy/%dx%d", size.papers, size.reviewers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assign.Greedy(p); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("balanced/%dx%d", size.papers, size.reviewers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := assign.Balanced(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Per-site id derivations, aliased for readability above.
var (
	simwebDBLP    = simweb.DBLPPID
	simwebScholar = simweb.ScholarUser
	simwebPublons = simweb.PublonsID
	simwebACM     = simweb.ACMID
	simwebORCID   = simweb.ORCIDOf
	simwebRID     = simweb.RIDOf
)

// BenchmarkHIndex: corpus metric computation cost.
func BenchmarkHIndex(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := scholarly.ScholarID(i % len(e.Corpus.Scholars))
		_ = e.Corpus.HIndex(id)
	}
}

// BenchmarkJobThroughput: N overlapping jobs drained through one
// jobs.Queue over a warm Shared, against the same N submissions
// processed as serial batch calls (the /v1/batch shape). The queue's
// worker pool overlaps jobs, so the venue-scale workload should beat
// serial batches while the shared caches keep per-item cost flat.
func BenchmarkJobThroughput(b *testing.B) {
	e := env(b)
	items := workload.NewGenerator(e.Corpus, e.Ont, workload.Config{
		Seed: 9200, NumManuscripts: 6,
	}).Generate()
	if len(items) < 6 {
		b.Fatalf("workload generated %d manuscripts", len(items))
	}
	pool := make([]core.Manuscript, len(items))
	for i, it := range items {
		pool[i] = it.Manuscript
	}
	// 4 jobs of 3 manuscripts each, overlapping windows into the pool —
	// the venue-queue shape the shared caches amortize.
	const numJobs = 4
	specs := make([][]core.Manuscript, numJobs)
	for j := range specs {
		specs[j] = []core.Manuscript{pool[j], pool[(j+1)%len(pool)], pool[(j+2)%len(pool)]}
	}
	cfg := core.Config{TopK: 10, MaxCandidates: 60}
	cfg.Filter.COI = coi.DefaultConfig(e.Corpus.HorizonYear)
	cfg.Ranking.HorizonYear = e.Corpus.HorizonYear
	ctx := context.Background()

	shared := core.NewShared(core.SharedOptions{})
	eng := core.NewWithShared(e.Registry, e.Ont, cfg, shared)
	// Warm both the fetch cache and the shared caches once.
	warm := batch.New(eng, batch.Options{Workers: 4})
	if sum := warm.Process(ctx, pool); sum.Succeeded != len(pool) {
		b.Fatalf("warmup succeeded %d/%d", sum.Succeeded, len(pool))
	}

	b.Run("serial-batches", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, ms := range specs {
				proc := batch.New(eng, batch.Options{Workers: 4})
				if sum := proc.Process(ctx, ms); sum.Succeeded != len(ms) {
					b.Fatalf("batch succeeded %d/%d", sum.Succeeded, len(ms))
				}
			}
		}
	})
	b.Run("jobs-queue", func(b *testing.B) {
		run := func(ctx context.Context, spec jobs.Spec, onItem func(batch.Item)) (*batch.Summary, error) {
			proc := batch.New(eng, batch.Options{Workers: spec.Workers, OnItem: onItem})
			return proc.Process(ctx, spec.Manuscripts), nil
		}
		for i := 0; i < b.N; i++ {
			q := jobs.New(run, jobs.Options{Workers: 2, Depth: numJobs})
			q.Start()
			ids := make([]string, 0, numJobs)
			for j, ms := range specs {
				job, err := q.Submit(jobs.Spec{
					Venue: fmt.Sprintf("venue-%d", j%2), Manuscripts: ms, Workers: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				ids = append(ids, job.ID)
			}
			for _, id := range ids {
				job, err := q.Wait(ctx, id, time.Minute)
				if err != nil || job.State != jobs.StateDone {
					b.Fatalf("job %s: %v state=%s err=%s", id, err, job.State, job.Error)
				}
			}
			stopCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
			if err := q.Stop(stopCtx); err != nil {
				b.Fatal(err)
			}
			cancel()
		}
	})
}
