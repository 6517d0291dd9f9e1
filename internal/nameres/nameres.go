// Package nameres implements author identity verification — the first
// step of MINARET's information-extraction phase. Scholars' names are
// ambiguous across and within scholarly sites (the paper's example: the
// many distinct "Lei Zhou"s on DBLP), so the framework searches every
// source, clusters the returned hits into candidate identities, and
// scores each candidate against the manuscript's author details. High
// confidence identities are accepted automatically; ambiguous ones are
// surfaced for the editor to resolve, exactly as the demo's Figure 4
// shows.
package nameres

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"minaret/internal/fetch"
	"minaret/internal/sources"
)

// Query describes one manuscript author to verify.
type Query struct {
	Name string
	// Affiliation is the author's current affiliation as entered on the
	// manuscript form; it disambiguates homonyms.
	Affiliation string
}

// Identity is one candidate resolution of a Query: a coherent set of
// per-source profile ids believed to denote the same person.
type Identity struct {
	// Name is the display name (longest observed form).
	Name string
	// Affiliation is the consensus current affiliation.
	Affiliation string
	// SiteIDs maps source name -> site-local id.
	SiteIDs map[string]string
	// Score in [0,1] is the match confidence against the query.
	Score float64
	// Evidence explains the score ("name exact on 4 sources",
	// "affiliation matches").
	Evidence []string
}

// Sources returns the identity's source names, sorted.
func (id *Identity) Sources() []string {
	out := make([]string, 0, len(id.SiteIDs))
	for s := range id.SiteIDs {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Result is the verification outcome for one author.
type Result struct {
	Query      Query
	Candidates []Identity // best first
	// Resolved is true when the top candidate clears the acceptance
	// thresholds and can be used without editor confirmation.
	Resolved bool
	// SourceErrors records sources that failed during search; partial
	// results remain usable.
	SourceErrors map[string]string
}

// Best returns the top candidate, or nil when the search found nothing.
func (r *Result) Best() *Identity {
	if len(r.Candidates) == 0 {
		return nil
	}
	return &r.Candidates[0]
}

// Options tunes verification.
type Options struct {
	// AcceptScore is the minimum top-candidate score for automatic
	// resolution. Default 0.75.
	AcceptScore float64
	// AcceptMargin is the minimum score gap between the top two
	// candidates for automatic resolution. Default 0.1.
	AcceptMargin float64
	// Workers bounds concurrent source searches. Default 6.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.AcceptScore == 0 {
		o.AcceptScore = 0.75
	}
	if o.AcceptMargin == 0 {
		o.AcceptMargin = 0.1
	}
	if o.Workers == 0 {
		o.Workers = 6
	}
	return o
}

// Verifier resolves author identities across a source registry.
type Verifier struct {
	registry *sources.Registry
	opts     Options
}

// NewVerifier builds a Verifier.
func NewVerifier(registry *sources.Registry, opts Options) *Verifier {
	return &Verifier{registry: registry, opts: opts.withDefaults()}
}

// Verify resolves one author. Source failures are recorded, not fatal:
// the paper's pipeline continues with whatever sources answered.
func (v *Verifier) Verify(ctx context.Context, q Query) *Result {
	clients := v.registry.All()
	hitLists, errs := fetch.Map(ctx, v.opts.Workers, clients,
		func(ctx context.Context, c sources.Client) ([]sources.Hit, error) {
			return c.SearchAuthor(ctx, q.Name)
		})
	res := &Result{Query: q, SourceErrors: map[string]string{}}
	var all []sources.Hit
	for i, hl := range hitLists {
		if errs[i] != nil {
			res.SourceErrors[clients[i].Source()] = errs[i].Error()
			continue
		}
		all = append(all, hl...)
	}
	res.Candidates = v.cluster(q, all)
	if top := res.Best(); top != nil {
		margin := top.Score
		if len(res.Candidates) > 1 {
			margin = top.Score - res.Candidates[1].Score
		}
		res.Resolved = top.Score >= v.opts.AcceptScore && margin >= v.opts.AcceptMargin
	}
	return res
}

// VerifyAll resolves a whole author list concurrently. Every slot of
// the returned list is non-nil, even when cancellation mid-dispatch
// kept some queries from running.
func (v *Verifier) VerifyAll(ctx context.Context, queries []Query) []*Result {
	out, _ := fetch.Map(ctx, v.opts.Workers, queries,
		func(ctx context.Context, q Query) (*Result, error) {
			return v.Verify(ctx, q), nil
		})
	return Backfill(out, queries)
}

// Backfill replaces nil slots of a parallel verification (queries whose
// dispatch a cancelled context skipped) with empty, iterable Results.
func Backfill(out []*Result, queries []Query) []*Result {
	for i, r := range out {
		if r == nil {
			out[i] = &Result{Query: queries[i], SourceErrors: map[string]string{}}
		}
	}
	return out
}

// cluster groups hits into identities and scores them. Two hits join the
// same identity when their names are compatible and their affiliations
// agree (or one of them is missing an affiliation).
func (v *Verifier) cluster(q Query, hits []sources.Hit) []Identity {
	sources.SortHits(hits)
	type cluster struct {
		hits []sources.Hit
	}
	var clusters []*cluster
next:
	for _, h := range hits {
		for _, cl := range clusters {
			ref := cl.hits[0]
			if !NamesCompatible(h.Name, ref.Name) {
				continue
			}
			if h.Affiliation != "" && ref.Affiliation != "" &&
				!strings.EqualFold(h.Affiliation, ref.Affiliation) {
				continue
			}
			// One id per source per identity; a second hit from the same
			// source with the same affiliation is a distinct homonym.
			for _, existing := range cl.hits {
				if existing.Source == h.Source {
					continue next
				}
			}
			cl.hits = append(cl.hits, h)
			continue next
		}
		clusters = append(clusters, &cluster{hits: []sources.Hit{h}})
	}

	ids := make([]Identity, 0, len(clusters))
	for _, cl := range clusters {
		ids = append(ids, v.scoreCluster(q, cl.hits))
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Score != ids[j].Score {
			return ids[i].Score > ids[j].Score
		}
		// Deterministic tie-break: more sources, then lexicographic id.
		if len(ids[i].SiteIDs) != len(ids[j].SiteIDs) {
			return len(ids[i].SiteIDs) > len(ids[j].SiteIDs)
		}
		return flatIDs(ids[i].SiteIDs) < flatIDs(ids[j].SiteIDs)
	})
	return ids
}

func flatIDs(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(m[k])
		b.WriteByte(';')
	}
	return b.String()
}

func (v *Verifier) scoreCluster(q Query, hits []sources.Hit) Identity {
	id := Identity{SiteIDs: map[string]string{}}
	var evidence []string
	bestName := ""
	for _, h := range hits {
		id.SiteIDs[h.Source] = h.SiteID
		if len(h.Name) > len(bestName) {
			bestName = h.Name
		}
		if id.Affiliation == "" && h.Affiliation != "" {
			id.Affiliation = h.Affiliation
		}
	}
	id.Name = bestName

	nameScore := NameSimilarity(q.Name, id.Name)
	affScore := 0.5 // unknown affiliation: neutral
	switch {
	case q.Affiliation == "" || id.Affiliation == "":
		// keep neutral
	case strings.EqualFold(strings.TrimSpace(q.Affiliation), strings.TrimSpace(id.Affiliation)):
		affScore = 1.0
		evidence = append(evidence, "affiliation matches "+id.Affiliation)
	default:
		affScore = 0.0
		evidence = append(evidence, "affiliation differs: "+id.Affiliation)
	}
	coverage := float64(len(id.SiteIDs)) / 6.0
	if coverage > 1 {
		coverage = 1
	}
	evidence = append(evidence,
		"name similarity "+fmtScore(nameScore)+" on "+itoa(len(id.SiteIDs))+" source(s)")

	// Weighted fusion: name dominates, affiliation disambiguates,
	// multi-source presence adds confidence.
	id.Score = 0.55*nameScore + 0.30*affScore + 0.15*coverage
	id.Evidence = evidence
	return id
}

func fmtScore(f float64) string {
	n := int(f*100 + 0.5)
	return itoa(n/100) + "." + pad2(n%100)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func pad2(n int) string {
	if n < 10 {
		return "0" + itoa(n)
	}
	return itoa(n)
}

// NormalizeName lower-cases, strips punctuation and diacritic-free folds
// a display name to comparable tokens.
func NormalizeName(name string) []string {
	return strings.Fields(string(appendNameTokens(nil, name)))
}

// appendNameTokens appends name's comparable tokens to dst, separated by
// single spaces: letters and digits lower-cased; white space, periods,
// commas, hyphens and apostrophes separating tokens; every other rune
// dropped.
func appendNameTokens(dst []byte, name string) []byte {
	start, gap := len(dst), false
	for _, r := range name {
		switch r = unicode.ToLower(r); {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			if gap && len(dst) > start {
				dst = append(dst, ' ')
			}
			gap = false
			dst = utf8.AppendRune(dst, r)
		case r == '.' || r == ',' || r == '-' || r == '\'' || unicode.IsSpace(r):
			gap = true
		}
	}
	return dst
}

// Name is a display name tokenized once, so it can be checked against
// many other names without re-tokenizing: NormalizeName's tokens joined
// by single spaces.
type Name struct{ tokens []byte }

// ParseName tokenizes name for repeated compatibility checks.
func ParseName(name string) Name { return ParseNameInto(nil, name) }

// ParseNameInto is ParseName building into buf's storage, so a scan that
// tokenizes one name per step can reuse a stack buffer and allocate
// nothing. The returned Name aliases buf.
func ParseNameInto(buf []byte, name string) Name {
	return Name{tokens: appendNameTokens(buf[:0], name)}
}

// NamesCompatible reports whether two rendered names could denote the
// same person, tolerating initials ("L. Zhou" vs "Lei Zhou") and
// reordered tokens ("Zhou, Lei").
func NamesCompatible(a, b string) bool { return ParseName(a).Matches(b) }

// Matches is Compatible against a name not yet tokenized. It tokenizes
// into a stack buffer, so names of ordinary length cost no allocation.
func (n Name) Matches(name string) bool {
	var buf [64]byte
	return n.Compatible(ParseNameInto(buf[:0], name))
}

// Compatible reports whether n and m could denote the same person; it
// is NamesCompatible on tokenized names and never allocates.
func (n Name) Compatible(m Name) bool {
	if len(n.tokens) == 0 || len(m.tokens) == 0 {
		return false
	}
	// Index-form names ("Zhou, Lei") normalize with the family name
	// first; try both readings of both sides so the check is symmetric.
	for ra := 0; ra < n.readings(); ra++ {
		ga, fa := n.reading(ra)
		for rb := 0; rb < m.readings(); rb++ {
			gb, fb := m.reading(rb)
			if orderedCompatible(ga, fa, gb, fb) {
				return true
			}
		}
	}
	return false
}

// readings is 1 for a single-token name and 2 otherwise.
func (n Name) readings() int {
	if bytes.IndexByte(n.tokens, ' ') < 0 {
		return 1
	}
	return 2
}

// reading splits the name "given... family": reading 0 takes the tokens
// as written, reading 1 rotates them one position (family first ->
// family last).
func (n Name) reading(r int) (given, family []byte) {
	if r == 0 {
		i := bytes.LastIndexByte(n.tokens, ' ')
		if i < 0 {
			return nil, n.tokens
		}
		return n.tokens[:i], n.tokens[i+1:]
	}
	i := bytes.IndexByte(n.tokens, ' ')
	return n.tokens[i+1:], n.tokens[:i]
}

// orderedCompatible checks two "given... family" readings: family tokens
// must be equal, given tokens pairwise compatible (equal, or initial of
// the other) as far as the shorter list goes.
func orderedCompatible(givenA, familyA, givenB, familyB []byte) bool {
	if !bytes.Equal(familyA, familyB) {
		return false
	}
	// A family-only form matches anything with that family.
	for len(givenA) > 0 && len(givenB) > 0 {
		var ta, tb []byte
		ta, givenA = nextToken(givenA)
		tb, givenB = nextToken(givenB)
		if !tokenCompatible(ta, tb) {
			return false
		}
	}
	return true
}

// nextToken splits the first token off a space-separated token list.
func nextToken(tokens []byte) (tok, rest []byte) {
	if i := bytes.IndexByte(tokens, ' '); i >= 0 {
		return tokens[:i], tokens[i+1:]
	}
	return tokens, nil
}

func tokenCompatible(a, b []byte) bool {
	return bytes.Equal(a, b) ||
		len(a) == 1 && bytes.HasPrefix(b, a) ||
		len(b) == 1 && bytes.HasPrefix(a, b)
}

// NameSimilarity returns a similarity in [0,1]: 1.0 for equal normalized
// names, 0.85 for initial-compatible names, otherwise a blend of token
// Jaccard overlap and edit-distance similarity.
func NameSimilarity(a, b string) float64 {
	ta, tb := NormalizeName(a), NormalizeName(b)
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	sa, sb := strings.Join(ta, " "), strings.Join(tb, " ")
	if sa == sb {
		return 1.0
	}
	if NamesCompatible(a, b) {
		return 0.85
	}
	// Token Jaccard.
	set := map[string]bool{}
	for _, t := range ta {
		set[t] = true
	}
	inter := 0
	for _, t := range tb {
		if set[t] {
			inter++
		}
	}
	union := len(set) + len(tb) - inter
	jaccard := 0.0
	if union > 0 {
		jaccard = float64(inter) / float64(union)
	}
	// Edit-distance similarity on the joined strings.
	dist := Levenshtein(sa, sb)
	maxLen := len(sa)
	if len(sb) > maxLen {
		maxLen = len(sb)
	}
	editSim := 1.0 - float64(dist)/float64(maxLen)
	if editSim < 0 {
		editSim = 0
	}
	score := 0.5*jaccard + 0.5*editSim
	if score > 0.84 {
		score = 0.84 // incompatible names never outrank compatible ones
	}
	return score
}

// Levenshtein computes the edit distance between two strings in O(len(a)
// × len(b)) time and O(min) space.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j] + 1 // deletion
			if x := cur[j-1] + 1; x < m {
				m = x // insertion
			}
			if x := prev[j-1] + cost; x < m {
				m = x // substitution
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}
