// Package check is the benchmark's ground-truth checker. It judges the
// reviewer slates MINARET serves against what the synthetic corpus
// knows to be true — corpus identities, authorship and conflicts — and
// never against the program's own output.
package check

import (
	"fmt"
	"sort"
	"strings"

	"minaret/internal/core"
	"minaret/internal/scholarly"
	"minaret/internal/simweb"
	"minaret/internal/workload"
)

// Truth is what the corpus knows about one manuscript.
type Truth struct {
	// Authors are the manuscript's corpus identities.
	Authors map[scholarly.ScholarID]bool
	// Conflicted are the scholars with a conflict of interest the
	// scholarly web publishes: a co-author of any author, or a scholar
	// who shares an institution with an author among the affiliations
	// the sites list — the whole employment history for a scholar on
	// ORCID, the current affiliation otherwise.
	Conflicted map[scholarly.ScholarID]bool
	// Relevant is the workload's eligible-relevant set.
	Relevant map[scholarly.ScholarID]bool
	// Population is how many scholars a uniformly random draw of
	// non-conflicted reviewers picks from: the corpus minus the authors
	// and everyone conflicted with them (co-authorship or a shared
	// institution, ever, published or not).
	Population int
}

// published lists the institutions the scholarly web shows for s.
func published(s *scholarly.Scholar) []string {
	if s.Presence.ORCID {
		out := make([]string, 0, len(s.Affiliations))
		for _, a := range s.Affiliations {
			out = append(out, strings.ToLower(a.Institution))
		}
		return out
	}
	return []string{strings.ToLower(s.CurrentAffiliation().Institution)}
}

// NewTruth derives a manuscript's ground truth from the corpus and the
// workload item that generated it.
func NewTruth(c *scholarly.Corpus, it workload.Item) Truth {
	t := Truth{
		Authors:    map[scholarly.ScholarID]bool{},
		Conflicted: map[scholarly.ScholarID]bool{},
		Relevant:   it.Relevant,
	}
	excluded := map[scholarly.ScholarID]bool{}
	everAt := map[string]bool{}
	shownAt := map[string]bool{}
	for _, a := range it.AuthorIDs {
		t.Authors[a] = true
		excluded[a] = true
		for co := range c.CoAuthors(a) {
			excluded[co] = true
			t.Conflicted[co] = true
		}
		for _, aff := range c.Scholar(a).Affiliations {
			everAt[strings.ToLower(aff.Institution)] = true
		}
		for _, inst := range published(c.Scholar(a)) {
			shownAt[inst] = true
		}
	}
	for i := range c.Scholars {
		s := &c.Scholars[i]
		for _, aff := range s.Affiliations {
			if everAt[strings.ToLower(aff.Institution)] {
				excluded[s.ID] = true
				break
			}
		}
		for _, inst := range published(s) {
			if shownAt[inst] && !t.Authors[s.ID] {
				t.Conflicted[s.ID] = true
				break
			}
		}
	}
	t.Population = len(c.Scholars) - len(excluded)
	return t
}

// Rec is one recommendation as the API served it.
type Rec struct {
	Rank    int
	Total   float64
	Name    string
	SiteIDs map[string]string
}

// SlateOf extracts a result's recommendations in served order.
func SlateOf(r *core.Result) []Rec {
	out := make([]Rec, 0, len(r.Recommendations))
	for _, rec := range r.Recommendations {
		x := Rec{Rank: rec.Rank, Total: rec.Total}
		if rec.Reviewer != nil {
			x.Name = rec.Reviewer.Name
			x.SiteIDs = rec.Reviewer.SiteIDs
		}
		out = append(out, x)
	}
	return out
}

// Key renders a slate as one comparable string: each reviewer's name
// and site ids, in rank order. Two slates with equal keys recommend the
// same identities in the same order.
func Key(slate []Rec) string {
	var b strings.Builder
	for _, r := range slate {
		sites := make([]string, 0, len(r.SiteIDs))
		for site, id := range r.SiteIDs {
			sites = append(sites, site+"="+id)
		}
		sort.Strings(sites)
		fmt.Fprintf(&b, "%d:%s[%s];", r.Rank, r.Name, strings.Join(sites, ","))
	}
	return b.String()
}

// maxFaults bounds how many fault messages a Checker keeps.
const maxFaults = 20

// Checker accumulates slate verdicts over a run. The zero value is
// ready to use; it is not safe for concurrent use.
type Checker struct {
	slates   int
	recs     int
	hits     int
	expected float64 // hits a uniformly random draw would expect
	faults   int
	messages []string
}

func (c *Checker) fault(format string, args ...any) {
	c.faults++
	if len(c.messages) < maxFaults {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

// Slate checks one served slate against its manuscript's truth:
// every reviewer maps through its site ids to exactly one corpus
// scholar, is neither an author nor conflicted, appears once, and
// ranks run 1..k with totals that do not increase.
func (c *Checker) Slate(label string, t Truth, slate []Rec) {
	c.slates++
	seen := map[scholarly.ScholarID]bool{}
	for i, r := range slate {
		if r.Rank != i+1 {
			c.fault("%s: position %d has rank %d", label, i+1, r.Rank)
		}
		if i > 0 && r.Total > slate[i-1].Total {
			c.fault("%s: rank %d total %.6f exceeds rank %d total %.6f", label, r.Rank, r.Total, slate[i-1].Rank, slate[i-1].Total)
		}
		ids := simweb.ScholarIDsOf(r.SiteIDs)
		if len(ids) != 1 {
			c.fault("%s: %q maps to %d corpus scholars %v through %v", label, r.Name, len(ids), ids, r.SiteIDs)
			continue
		}
		id := ids[0]
		if seen[id] {
			c.fault("%s: scholar %d appears twice", label, id)
		}
		seen[id] = true
		if t.Authors[id] {
			c.fault("%s: author %d recommended", label, id)
		}
		if t.Conflicted[id] {
			c.fault("%s: conflicted scholar %d recommended", label, id)
		}
		c.recs++
		if t.Relevant[id] {
			c.hits++
		}
		if t.Population > 0 {
			c.expected += float64(len(t.Relevant)) / float64(t.Population)
		}
	}
}

// Precision is the share of checked recommendations that are relevant.
func (c *Checker) Precision() float64 {
	if c.recs == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.recs)
}

// Baseline is the precision a uniformly random draw of non-conflicted
// scholars would get on the same slates.
func (c *Checker) Baseline() float64 {
	if c.recs == 0 {
		return 0
	}
	return c.expected / float64(c.recs)
}

// Err returns nil when every slate passed and the run's precision beats
// the random baseline, else an error naming the faults.
func (c *Checker) Err() error {
	var msgs []string
	if c.faults > 0 {
		msgs = append(msgs, fmt.Sprintf("%d slate faults: %s", c.faults, strings.Join(c.messages, "; ")))
	}
	if c.recs == 0 {
		msgs = append(msgs, fmt.Sprintf("no recommendations in %d slates", c.slates))
	} else if c.Precision() <= c.Baseline() {
		msgs = append(msgs, fmt.Sprintf("precision %.4f does not beat the random baseline %.4f", c.Precision(), c.Baseline()))
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(msgs, "; "))
}
