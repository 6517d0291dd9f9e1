package check

import (
	"strings"
	"testing"

	"minaret/internal/ontology"
	"minaret/internal/scholarly"
	"minaret/internal/simweb"
	"minaret/internal/workload"
)

func ids(xs ...scholarly.ScholarID) map[scholarly.ScholarID]bool {
	m := map[scholarly.ScholarID]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// truth: scholar 1 is the author, 2 is conflicted, 3..6 are relevant,
// and a random draw picks from 100 scholars.
var truth = Truth{
	Authors:    ids(1),
	Conflicted: ids(2),
	Relevant:   ids(3, 4, 5, 6),
	Population: 100,
}

func rec(rank int, total float64, id scholarly.ScholarID) Rec {
	return Rec{Rank: rank, Total: total, Name: "n", SiteIDs: map[string]string{
		simweb.SourceDBLP:  simweb.DBLPPID(id),
		simweb.SourceORCID: simweb.ORCIDOf(id),
	}}
}

func goodSlate() []Rec {
	return []Rec{rec(1, 0.9, 3), rec(2, 0.8, 4), rec(3, 0.8, 5), rec(4, 0.1, 50)}
}

func TestCheckerAcceptsGoodSlate(t *testing.T) {
	var c Checker
	c.Slate("good", truth, goodSlate())
	if err := c.Err(); err != nil {
		t.Fatalf("good slate rejected: %v", err)
	}
	if got, want := c.Precision(), 0.75; got != want {
		t.Fatalf("precision %v, want %v", got, want)
	}
	if got, want := c.Baseline(), 0.04; got != want {
		t.Fatalf("baseline %v, want %v", got, want)
	}
}

func TestCheckerRejectsEachFault(t *testing.T) {
	cases := []struct {
		name  string
		slate func() []Rec
		want  string
	}{
		{"merged identity", func() []Rec {
			s := goodSlate()
			s[1].SiteIDs[simweb.SourceORCID] = simweb.ORCIDOf(7)
			return s
		}, "maps to 2 corpus scholars"},
		{"unmappable identity", func() []Rec {
			s := goodSlate()
			s[1].SiteIDs = map[string]string{simweb.SourceDBLP: "not-a-pid"}
			return s
		}, "maps to 0 corpus scholars"},
		{"author recommended", func() []Rec {
			s := goodSlate()
			s[3] = rec(4, 0.1, 1)
			return s
		}, "author 1 recommended"},
		{"conflicted recommended", func() []Rec {
			s := goodSlate()
			s[3] = rec(4, 0.1, 2)
			return s
		}, "conflicted scholar 2 recommended"},
		{"duplicate scholar", func() []Rec {
			s := goodSlate()
			s[2] = rec(3, 0.8, 3)
			return s
		}, "scholar 3 appears twice"},
		{"rank gap", func() []Rec {
			s := goodSlate()
			s[2].Rank = 4
			return s
		}, "position 3 has rank 4"},
		{"rank from zero", func() []Rec {
			s := goodSlate()
			for i := range s {
				s[i].Rank = i
			}
			return s
		}, "position 1 has rank 0"},
		{"total increases", func() []Rec {
			s := goodSlate()
			s[3].Total = 0.95
			return s
		}, "rank 4 total 0.950000 exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c Checker
			c.Slate(tc.name, truth, tc.slate())
			err := c.Err()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.want)
			}
		})
	}
}

func TestCheckerRejectsPrecisionAtBaseline(t *testing.T) {
	var c Checker
	// No relevant reviewer at all: precision 0 against a baseline of 0.04.
	c.Slate("irrelevant", truth, []Rec{rec(1, 0.5, 60), rec(2, 0.4, 61)})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "does not beat the random baseline") {
		t.Fatalf("err = %v, want a baseline failure", err)
	}
	var empty Checker
	empty.Slate("empty", truth, nil)
	if err := empty.Err(); err == nil || !strings.Contains(err.Error(), "no recommendations") {
		t.Fatalf("err = %v, want a no-recommendations failure", err)
	}
}

func TestKeyOrderSensitive(t *testing.T) {
	a := goodSlate()
	b := goodSlate()
	if Key(a) != Key(b) {
		t.Fatal("equal slates have different keys")
	}
	b[0], b[1] = b[1], b[0]
	if Key(a) == Key(b) {
		t.Fatal("reordered slate has the same key")
	}
}

func TestNewTruthExcludesAuthorsAndConflicts(t *testing.T) {
	o := ontology.Default()
	c := scholarly.MustGenerate(scholarly.GeneratorConfig{
		Seed: 3, NumScholars: 200, Topics: o.Topics(), Related: o.RelatedMap(),
	})
	items := workload.NewGenerator(c, o, workload.Config{Seed: 3, NumManuscripts: 3}).Generate()
	if len(items) == 0 {
		t.Fatal("no workload items")
	}
	for _, it := range items {
		tr := NewTruth(c, it)
		excluded := len(c.Scholars) - tr.Population
		// At least the authors and their co-authors are excluded.
		min := len(it.AuthorIDs)
		for _, a := range it.AuthorIDs {
			if n := len(c.CoAuthors(a)); n > min {
				min = n
			}
		}
		if excluded < min {
			t.Fatalf("population %d of %d excludes %d, want at least %d", tr.Population, len(c.Scholars), excluded, min)
		}
		if len(tr.Relevant) > tr.Population {
			t.Fatalf("relevant set %d larger than population %d", len(tr.Relevant), tr.Population)
		}
		for a := range tr.Authors {
			if tr.Relevant[a] {
				t.Fatalf("author %d is in the relevant set", a)
			}
			for co := range c.CoAuthors(a) {
				if !tr.Conflicted[co] && !tr.Authors[co] {
					t.Fatalf("co-author %d of author %d is not conflicted", co, a)
				}
			}
		}
	}
}

// TestNewTruthPublishedAffiliations pins which shared institutions
// count as a published conflict: a scholar's whole history when they
// are on ORCID, only the current affiliation otherwise, on both the
// author's and the candidate's side.
func TestNewTruthPublishedAffiliations(t *testing.T) {
	past := scholarly.Affiliation{Institution: "Past University", StartYear: 2000, EndYear: 2010}
	cur := scholarly.Affiliation{Institution: "Current University", StartYear: 2010}
	other := scholarly.Affiliation{Institution: "Other University", StartYear: 2012}
	pastAtCur := scholarly.Affiliation{Institution: "Current University", StartYear: 2001, EndYear: 2011}
	scholar := func(id scholarly.ScholarID, orcid bool, affs ...scholarly.Affiliation) scholarly.Scholar {
		return scholarly.Scholar{ID: id, Affiliations: affs, Presence: scholarly.SourcePresence{ORCID: orcid}}
	}
	corpus := func(authorOnORCID bool) *scholarly.Corpus {
		return &scholarly.Corpus{Scholars: []scholarly.Scholar{
			scholar(0, authorOnORCID, past, cur), // the author
			scholar(1, false, cur),               // shares the author's current institution
			scholar(2, true, pastAtCur, other),   // was there, and ORCID lists it
			scholar(3, false, pastAtCur, other),  // was there, but no site lists it
			scholar(4, false, past),              // at the author's past institution
			scholar(5, true, other),              // unrelated
		}}
	}
	item := workload.Item{AuthorIDs: []scholarly.ScholarID{0}}
	for _, tc := range []struct {
		authorOnORCID bool
		want          map[scholarly.ScholarID]bool
	}{
		// The author's past institution is unpublished, so scholar 4 is
		// not a published conflict.
		{false, ids(1, 2)},
		// ORCID lists the author's past institution too.
		{true, ids(1, 2, 4)},
	} {
		tr := NewTruth(corpus(tc.authorOnORCID), item)
		for id := scholarly.ScholarID(0); id < 6; id++ {
			if tr.Conflicted[id] != tc.want[id] {
				t.Errorf("author on ORCID %v: scholar %d conflicted = %v, want %v", tc.authorOnORCID, id, tr.Conflicted[id], tc.want[id])
			}
		}
		if !tr.Authors[0] {
			t.Errorf("author on ORCID %v: scholar 0 is not an author", tc.authorOnORCID)
		}
		// A random draw excludes everyone who ever shared an institution
		// with the author, published or not: only scholar 5 remains.
		if tr.Population != 1 {
			t.Errorf("author on ORCID %v: population %d, want 1", tc.authorOnORCID, tr.Population)
		}
	}
}
