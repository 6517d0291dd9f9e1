// Package profile assembles unified scholar profiles from per-source
// extraction records — the "extracting the track records" step of
// MINARET's information-extraction phase. A profile merges whatever
// subset of the six sources knows the scholar: DBLP supplies linked
// publication lists, Google Scholar supplies citation metrics and
// interests, Publons supplies the review log, ORCID supplies employment
// history, ACM DL and ResearcherID corroborate.
package profile

import (
	"context"
	"sort"
	"strings"
	"unicode"

	"minaret/internal/fetch"
	"minaret/internal/sources"
)

// Publication is a deduplicated publication across sources.
type Publication struct {
	Title     string
	Year      int
	Venue     string
	CoAuthors []string // display names, as best reported
	Citations int      // max across sources
	// Sources lists which sources reported the paper.
	Sources []string
}

// Profile is the unified cross-source view of one scholar.
type Profile struct {
	Name   string
	Given  string
	Family string

	// SiteIDs maps source -> site-local id used during assembly.
	SiteIDs map[string]string

	Affiliation string // current institution (consensus)
	Country     string
	// AffiliationHistory is the full employment history when a source
	// (ORCID) provides it; otherwise it holds just the current one.
	AffiliationHistory []sources.AffPeriod

	Interests []string // union, deduplicated, sorted

	Publications []Publication // most recent first

	Citations int // max reported
	HIndex    int
	I10Index  int

	Reviews     []sources.ReviewRecord
	ReviewCount int

	// Provenance records which sources contributed and which failed.
	SourcesUsed  []string
	SourceErrors map[string]string
}

// Summary is a profile's identity and headline figures: what a slate
// shows of a reviewer or an author, without the track record behind
// them (publications, reviews, affiliation history). Its fields and
// JSON keys are Profile's, so an encoded summary decodes into a
// *Profile with these fields set and the track record empty.
type Summary struct {
	Name         string
	Given        string
	Family       string
	SiteIDs      map[string]string
	Affiliation  string
	Country      string
	Interests    []string
	Citations    int
	HIndex       int
	I10Index     int
	ReviewCount  int
	SourcesUsed  []string
	SourceErrors map[string]string
}

// Summary returns the profile's summary, sharing its slices and maps;
// nil for a nil profile.
func (p *Profile) Summary() *Summary {
	if p == nil {
		return nil
	}
	return &Summary{
		Name: p.Name, Given: p.Given, Family: p.Family,
		SiteIDs:     p.SiteIDs,
		Affiliation: p.Affiliation, Country: p.Country,
		Interests: p.Interests,
		Citations: p.Citations, HIndex: p.HIndex, I10Index: p.I10Index,
		ReviewCount: p.ReviewCount,
		SourcesUsed: p.SourcesUsed, SourceErrors: p.SourceErrors,
	}
}

// PubYears returns the publication years, most recent first.
func (p *Profile) PubYears() []int {
	out := make([]int, len(p.Publications))
	for i, pub := range p.Publications {
		out[i] = pub.Year
	}
	return out
}

// LastActiveYear returns the most recent publication year (0 if none).
func (p *Profile) LastActiveYear() int {
	best := 0
	for _, pub := range p.Publications {
		if pub.Year > best {
			best = pub.Year
		}
	}
	return best
}

// ReviewsForVenue counts reviews performed for the named outlet.
func (p *Profile) ReviewsForVenue(venue string) int {
	n := 0
	for _, r := range p.Reviews {
		if strings.EqualFold(r.Venue, venue) {
			n++
		}
	}
	return n
}

// PublicationsInVenue counts papers published in the named outlet.
func (p *Profile) PublicationsInVenue(venue string) int {
	n := 0
	for _, pub := range p.Publications {
		if strings.EqualFold(pub.Venue, venue) {
			n++
		}
	}
	return n
}

// MedianReviewDays returns the median review turnaround, or 0 when the
// profile has no review log.
func (p *Profile) MedianReviewDays() int {
	if len(p.Reviews) == 0 {
		return 0
	}
	days := make([]int, len(p.Reviews))
	for i, r := range p.Reviews {
		days[i] = r.Days
	}
	sort.Ints(days)
	return days[len(days)/2]
}

// HasAffiliation reports whether the scholar was ever affiliated with the
// institution (case-insensitive), within the optional year window
// [sinceYear, horizon]; sinceYear 0 means any time.
func (p *Profile) HasAffiliation(institution string, sinceYear, horizon int) bool {
	for _, a := range p.AffiliationHistory {
		if !strings.EqualFold(a.Institution, institution) {
			continue
		}
		if sinceYear == 0 {
			return true
		}
		end := a.EndYear
		if end == 0 {
			end = horizon
		}
		if end >= sinceYear {
			return true
		}
	}
	return false
}

// Countries returns the distinct countries of the affiliation history.
func (p *Profile) Countries() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range p.AffiliationHistory {
		c := strings.TrimSpace(a.Country)
		if c == "" {
			continue
		}
		k := strings.ToLower(c)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	if p.Country != "" {
		k := strings.ToLower(p.Country)
		if !seen[k] {
			out = append(out, p.Country)
		}
	}
	sort.Strings(out)
	return out
}

// NormalizeTitle canonicalizes a publication title for deduplication.
func NormalizeTitle(title string) string { return string(AppendNormalizedTitle(nil, title)) }

// AppendNormalizedTitle appends NormalizeTitle(title) to dst: the title
// lower-cased, reduced to ASCII letters and digits, its space- or
// tab-separated words joined by single spaces. Hot loops pass a reused
// buffer so the comparison key costs no allocation.
func AppendNormalizedTitle(dst []byte, title string) []byte {
	start, gap := len(dst), false
	for _, r := range title {
		switch r = unicode.ToLower(r); {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			if gap && len(dst) > start {
				dst = append(dst, ' ')
			}
			gap = false
			dst = append(dst, byte(r))
		case r == ' ' || r == '\t':
			gap = true
		}
	}
	return dst
}

// Assembler fetches and merges per-source records.
type Assembler struct {
	registry *sources.Registry
	workers  int
}

// NewAssembler builds an Assembler; workers bounds concurrent profile
// fetches per scholar (default 6).
func NewAssembler(registry *sources.Registry, workers int) *Assembler {
	if workers <= 0 {
		workers = 6
	}
	return &Assembler{registry: registry, workers: workers}
}

// Assemble fetches every source in siteIDs concurrently and merges the
// records. Individual source failures are recorded in SourceErrors; the
// assembly succeeds if at least one source answered.
func (a *Assembler) Assemble(ctx context.Context, siteIDs map[string]string) (*Profile, error) {
	type job struct {
		source string
		id     string
	}
	jobs := make([]job, 0, len(siteIDs))
	for s, id := range siteIDs {
		jobs = append(jobs, job{s, id})
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].source < jobs[j].source })

	recs, errs := fetch.Map(ctx, a.workers, jobs, func(ctx context.Context, j job) (*sources.Record, error) {
		cl, ok := a.registry.Get(j.source)
		if !ok {
			return nil, &UnknownSourceError{Source: j.source}
		}
		return cl.Profile(ctx, j.id)
	})

	p := &Profile{
		SiteIDs:      map[string]string{},
		SourceErrors: map[string]string{},
	}
	var got []*sources.Record
	for i, rec := range recs {
		if errs[i] != nil {
			p.SourceErrors[jobs[i].source] = errs[i].Error()
			continue
		}
		p.SiteIDs[jobs[i].source] = jobs[i].id
		p.SourcesUsed = append(p.SourcesUsed, jobs[i].source)
		got = append(got, rec)
	}
	if len(got) == 0 {
		return nil, &NoSourcesError{Errors: p.SourceErrors}
	}
	merge(p, got)
	return p, nil
}

// UnknownSourceError reports a siteIDs entry with no registered client.
type UnknownSourceError struct{ Source string }

func (e *UnknownSourceError) Error() string {
	return "profile: no client registered for source " + e.Source
}

// NoSourcesError reports that every source failed during assembly.
type NoSourcesError struct{ Errors map[string]string }

func (e *NoSourcesError) Error() string {
	return "profile: all sources failed during assembly"
}

// merge folds the per-source records into the profile. Precedence rules
// are documented inline; they mirror the reliability of the real sites
// for each field.
func merge(p *Profile, recs []*sources.Record) {
	interests := map[string]string{} // normalized -> display
	type pubAgg struct {
		pub Publication
	}
	pubs := map[string]*pubAgg{} // normalized title+year key

	for _, r := range recs {
		// Longest name wins (fullest form); split form from ORCID wins
		// for Given/Family.
		if len(r.Name) > len(p.Name) {
			p.Name = r.Name
		}
		if r.Given != "" {
			p.Given, p.Family = r.Given, r.Family
		}
		if p.Affiliation == "" && r.Affiliation != "" {
			p.Affiliation = r.Affiliation
		}
		if p.Country == "" && r.Country != "" {
			p.Country = r.Country
		}
		// Longest affiliation history wins (ORCID's full record beats a
		// single current-institution entry).
		if len(r.AffiliationHistory) > len(p.AffiliationHistory) {
			p.AffiliationHistory = append([]sources.AffPeriod(nil), r.AffiliationHistory...)
		}
		for _, in := range r.Interests {
			k := strings.ToLower(strings.TrimSpace(in))
			if _, ok := interests[k]; !ok && k != "" {
				interests[k] = in
			}
		}
		// Metrics: max across sources (sites lag each other; the highest
		// figure is the most recently updated).
		if r.Citations > p.Citations {
			p.Citations = r.Citations
		}
		if r.HIndex > p.HIndex {
			p.HIndex = r.HIndex
		}
		if r.I10Index > p.I10Index {
			p.I10Index = r.I10Index
		}
		if r.ReviewCount > p.ReviewCount {
			p.ReviewCount = r.ReviewCount
		}
		if len(r.Reviews) > len(p.Reviews) {
			p.Reviews = append([]sources.ReviewRecord(nil), r.Reviews...)
		}
		for _, pub := range r.Publications {
			key := NormalizeTitle(pub.Title) + "|" + itoa(pub.Year)
			agg, ok := pubs[key]
			if !ok {
				agg = &pubAgg{pub: Publication{
					Title: pub.Title, Year: pub.Year, Venue: pub.Venue,
				}}
				pubs[key] = agg
			}
			if pub.Citations > agg.pub.Citations {
				agg.pub.Citations = pub.Citations
			}
			if agg.pub.Venue == "" {
				agg.pub.Venue = pub.Venue
			}
			if len(pub.CoAuthors) > len(agg.pub.CoAuthors) {
				agg.pub.CoAuthors = append([]string(nil), pub.CoAuthors...)
			}
			agg.pub.Sources = appendUnique(agg.pub.Sources, r.Source)
		}
	}

	// No history reported anywhere: synthesize a single current entry so
	// COI's affiliation rule still has something to inspect.
	if len(p.AffiliationHistory) == 0 && p.Affiliation != "" {
		p.AffiliationHistory = []sources.AffPeriod{{
			Institution: p.Affiliation, Country: p.Country,
		}}
	}

	for k := range interests {
		p.Interests = append(p.Interests, interests[k])
	}
	sort.Slice(p.Interests, func(i, j int) bool {
		return strings.ToLower(p.Interests[i]) < strings.ToLower(p.Interests[j])
	})

	keys := make([]string, 0, len(pubs))
	for k := range pubs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.Publications = append(p.Publications, pubs[k].pub)
	}
	sort.SliceStable(p.Publications, func(i, j int) bool {
		if p.Publications[i].Year != p.Publications[j].Year {
			return p.Publications[i].Year > p.Publications[j].Year
		}
		return p.Publications[i].Title < p.Publications[j].Title
	})
	if p.ReviewCount < len(p.Reviews) {
		p.ReviewCount = len(p.Reviews)
	}
	sort.Strings(p.SourcesUsed)
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
