package filter

import (
	"testing"

	"minaret/internal/coi"
	"minaret/internal/profile"
	"minaret/internal/sources"
)

func cleanReviewer() *profile.Profile {
	return &profile.Profile{
		Name:      "Lei Zhou",
		Citations: 500, HIndex: 12, ReviewCount: 30,
		Publications: []profile.Publication{
			{Title: "P1", Year: 2017}, {Title: "P2", Year: 2015},
		},
		AffiliationHistory: []sources.AffPeriod{
			{Institution: "U Gamma", Country: "Japan", StartYear: 2010},
		},
	}
}

func authorProfiles() []*profile.Profile {
	return []*profile.Profile{{
		Name: "Ana Costa",
		AffiliationHistory: []sources.AffPeriod{
			{Institution: "University of Tartu", Country: "Estonia", StartYear: 2012},
		},
		Publications: []profile.Publication{{Title: "Author Paper", Year: 2016}},
	}}
}

func TestKeepCleanCandidate(t *testing.T) {
	f := New(Config{COI: coi.DefaultConfig(2018)})
	d := f.Evaluate(cleanReviewer(), 0.9, f.Prepare(authorProfiles()))
	if !d.Kept || len(d.Reasons) != 0 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestCOIExcludes(t *testing.T) {
	r := cleanReviewer()
	r.Publications = append(r.Publications, profile.Publication{Title: "Author Paper", Year: 2016})
	f := New(Config{COI: coi.DefaultConfig(2018)})
	d := f.Evaluate(r, 0.9, f.Prepare(authorProfiles()))
	if d.Kept {
		t.Fatal("co-author kept")
	}
	if d.Reasons[0].Kind != "coi" || len(d.Reasons[0].COI) == 0 {
		t.Fatalf("reasons = %+v", d.Reasons)
	}
}

func TestKeywordThresholdExcludes(t *testing.T) {
	f := New(Config{MinKeywordScore: 0.7})
	if d := f.Evaluate(cleanReviewer(), 0.69, nil); d.Kept {
		t.Fatal("below-threshold candidate kept")
	}
	if d := f.Evaluate(cleanReviewer(), 0.70, nil); !d.Kept {
		t.Fatal("at-threshold candidate dropped")
	}
}

func TestExpertiseConstraints(t *testing.T) {
	e := ExpertiseConstraints{
		MinCitations: 100, MaxCitations: 10000,
		MinHIndex: 5, MaxHIndex: 50,
		MinReviews: 10, MaxReviews: 200,
		MinPubs: 1,
	}
	if v := e.Violations(cleanReviewer()); len(v) != 0 {
		t.Fatalf("clean reviewer violates: %v", v)
	}
	weak := &profile.Profile{Citations: 5, HIndex: 1, ReviewCount: 0}
	v := e.Violations(weak)
	if len(v) != 4 {
		t.Fatalf("violations = %v, want 4", v)
	}
	// Over-the-top profile: a busy high-profile reviewer the editor wants
	// to avoid (the paper's "quite busy" concern).
	star := &profile.Profile{Citations: 50000, HIndex: 90, ReviewCount: 500,
		Publications: []profile.Publication{{Title: "X"}}}
	v = e.Violations(star)
	if len(v) != 3 {
		t.Fatalf("star violations = %v, want 3 maxima", v)
	}
}

func TestExpertiseZeroMeansUnbounded(t *testing.T) {
	e := ExpertiseConstraints{}
	if v := e.Violations(&profile.Profile{}); len(v) != 0 {
		t.Fatalf("empty constraints violate: %v", v)
	}
}

func TestPCMemberFilter(t *testing.T) {
	f := New(Config{PCMembers: []string{"Lei Zhou", "Ana  Costa"}})
	if d := f.Evaluate(cleanReviewer(), 1, nil); !d.Kept {
		t.Fatalf("PC member dropped: %+v", d)
	}
	outsider := cleanReviewer()
	outsider.Name = "Boris Petrov"
	d := f.Evaluate(outsider, 1, nil)
	if d.Kept || d.Reasons[0].Kind != "not-pc-member" {
		t.Fatalf("outsider decision = %+v", d)
	}
}

func TestPCFilterNormalizesNames(t *testing.T) {
	f := New(Config{PCMembers: []string{"LEI   ZHOU"}})
	if d := f.Evaluate(cleanReviewer(), 1, nil); !d.Kept {
		t.Fatal("case/space-insensitive PC match failed")
	}
}

func TestMultipleReasonsAccumulate(t *testing.T) {
	r := cleanReviewer()
	r.Publications = append(r.Publications, profile.Publication{Title: "Author Paper", Year: 2016})
	f := New(Config{
		COI:             coi.DefaultConfig(2018),
		MinKeywordScore: 0.9,
		Expertise:       ExpertiseConstraints{MinCitations: 10000},
	})
	d := f.Evaluate(r, 0.3, f.Prepare(authorProfiles()))
	if d.Kept {
		t.Fatal("kept")
	}
	kinds := map[string]bool{}
	for _, reason := range d.Reasons {
		kinds[reason.Kind] = true
	}
	for _, want := range []string{"coi", "keyword-score", "expertise"} {
		if !kinds[want] {
			t.Errorf("missing reason %q in %+v", want, d.Reasons)
		}
	}
}

func TestBlockedReviewers(t *testing.T) {
	f := New(Config{BlockedReviewers: []string{"L. Zhou", "Ana Costa"}})
	// Initialed block entry matches the full name.
	d := f.Evaluate(cleanReviewer(), 1, nil)
	if d.Kept || d.Reasons[0].Kind != "blocked" {
		t.Fatalf("blocked reviewer kept: %+v", d)
	}
	other := cleanReviewer()
	other.Name = "Boris Petrov"
	if d := f.Evaluate(other, 1, nil); !d.Kept {
		t.Fatalf("unblocked reviewer dropped: %+v", d)
	}
}

func TestNoPCFilterWhenEmpty(t *testing.T) {
	f := New(Config{})
	if d := f.Evaluate(cleanReviewer(), 1, nil); !d.Kept {
		t.Fatal("journal mode (no PC list) should not restrict")
	}
}
