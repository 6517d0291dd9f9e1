package coi

import (
	"testing"

	"minaret/internal/profile"
	"minaret/internal/sources"
)

func mkProfile(name string, affs []sources.AffPeriod, pubs []profile.Publication) *profile.Profile {
	return &profile.Profile{
		Name:               name,
		AffiliationHistory: affs,
		Publications:       pubs,
	}
}

func TestCoAuthorshipByTitle(t *testing.T) {
	shared := profile.Publication{Title: "A Shared Paper", Year: 2016}
	author := mkProfile("Ana Costa", nil, []profile.Publication{shared, {Title: "Solo A", Year: 2018}})
	reviewer := mkProfile("Lei Zhou", nil, []profile.Publication{{Title: "a shared   PAPER!", Year: 2016}, {Title: "Solo R", Year: 2017}})
	d := NewDetector(Config{CoAuthorship: true, HorizonYear: 2018})
	ev := d.Detect(reviewer, []*profile.Profile{author})
	if len(ev) != 1 {
		t.Fatalf("evidence = %v, want 1 co-authorship", ev)
	}
	if ev[0].Rule != RuleCoAuthorship || ev[0].Year != 2016 {
		t.Fatalf("evidence = %+v", ev[0])
	}
}

func TestCoAuthorshipByCoAuthorName(t *testing.T) {
	// The reviewer's paper lists the author by initialed name; no shared
	// title (author's own record is sparse).
	reviewer := mkProfile("Lei Zhou", nil, []profile.Publication{
		{Title: "Joint Work", Year: 2015, CoAuthors: []string{"L. Zhou", "A. Costa"}},
	})
	author := mkProfile("Ana Costa", nil, nil)
	d := NewDetector(Config{CoAuthorship: true, HorizonYear: 2018})
	ev := d.Detect(reviewer, []*profile.Profile{author})
	if len(ev) != 1 || ev[0].Rule != RuleCoAuthorship {
		t.Fatalf("evidence = %v", ev)
	}
}

func TestCoAuthorshipWindow(t *testing.T) {
	shared := profile.Publication{Title: "Ancient Collaboration", Year: 2005}
	author := mkProfile("Ana Costa", nil, []profile.Publication{shared})
	reviewer := mkProfile("Lei Zhou", nil, []profile.Publication{shared})
	// Window of 5 years before 2018 excludes a 2005 paper.
	d := NewDetector(Config{CoAuthorship: true, CoAuthorWindowYears: 5, HorizonYear: 2018})
	if ev := d.Detect(reviewer, []*profile.Profile{author}); len(ev) != 0 {
		t.Fatalf("windowed detection returned %v", ev)
	}
	// Unwindowed config catches it.
	d2 := NewDetector(Config{CoAuthorship: true, HorizonYear: 2018})
	if ev := d2.Detect(reviewer, []*profile.Profile{author}); len(ev) != 1 {
		t.Fatalf("unwindowed detection returned %v", ev)
	}
}

func TestSharedUniversity(t *testing.T) {
	author := mkProfile("Ana Costa", []sources.AffPeriod{
		{Institution: "University of Tartu", Country: "Estonia", StartYear: 2010},
	}, nil)
	reviewer := mkProfile("Lei Zhou", []sources.AffPeriod{
		{Institution: "university of tartu", Country: "Estonia", StartYear: 2015},
	}, nil)
	d := NewDetector(Config{Affiliation: AffiliationUniversity, HorizonYear: 2018})
	ev := d.Detect(reviewer, []*profile.Profile{author})
	if len(ev) != 1 || ev[0].Rule != RuleSharedUniversity {
		t.Fatalf("evidence = %v", ev)
	}
}

func TestSharedUniversityHistorical(t *testing.T) {
	// Reviewer left the shared institution years ago.
	author := mkProfile("Ana Costa", []sources.AffPeriod{
		{Institution: "U Alpha", Country: "X", StartYear: 2012},
	}, nil)
	reviewer := mkProfile("Lei Zhou", []sources.AffPeriod{
		{Institution: "U Alpha", Country: "X", StartYear: 2000, EndYear: 2008},
		{Institution: "U Beta", Country: "Y", StartYear: 2008},
	}, nil)
	// Full-history policy flags it.
	d := NewDetector(Config{Affiliation: AffiliationUniversity, HorizonYear: 2018})
	if ev := d.Detect(reviewer, []*profile.Profile{author}); len(ev) != 1 {
		t.Fatalf("full-history = %v", ev)
	}
	// A 5-year window does not (reviewer's U Alpha period ended 2008).
	dw := NewDetector(Config{Affiliation: AffiliationUniversity, AffiliationWindowYears: 5, HorizonYear: 2018})
	if ev := dw.Detect(reviewer, []*profile.Profile{author}); len(ev) != 0 {
		t.Fatalf("windowed = %v", ev)
	}
}

func TestSharedCountryLevel(t *testing.T) {
	author := mkProfile("Ana Costa", []sources.AffPeriod{
		{Institution: "U Alpha", Country: "Estonia", StartYear: 2012},
	}, nil)
	reviewer := mkProfile("Lei Zhou", []sources.AffPeriod{
		{Institution: "U Gamma", Country: "Estonia", StartYear: 2014},
	}, nil)
	// University level: different institutions, no conflict.
	du := NewDetector(Config{Affiliation: AffiliationUniversity, HorizonYear: 2018})
	if ev := du.Detect(reviewer, []*profile.Profile{author}); len(ev) != 0 {
		t.Fatalf("university level flagged cross-institution: %v", ev)
	}
	// Country level: conflict.
	dc := NewDetector(Config{Affiliation: AffiliationCountry, HorizonYear: 2018})
	ev := dc.Detect(reviewer, []*profile.Profile{author})
	if len(ev) != 1 || ev[0].Rule != RuleSharedCountry {
		t.Fatalf("country level = %v", ev)
	}
}

func TestNoConflict(t *testing.T) {
	author := mkProfile("Ana Costa", []sources.AffPeriod{
		{Institution: "U Alpha", Country: "Estonia", StartYear: 2012},
	}, []profile.Publication{{Title: "A Paper", Year: 2017}})
	reviewer := mkProfile("Lei Zhou", []sources.AffPeriod{
		{Institution: "U Beta", Country: "Japan", StartYear: 2010},
	}, []profile.Publication{{Title: "Different Paper", Year: 2017}})
	d := NewDetector(Config{CoAuthorship: true, Affiliation: AffiliationCountry, HorizonYear: 2018})
	if ev := d.Detect(reviewer, []*profile.Profile{author}); len(ev) != 0 {
		t.Fatalf("clean pair flagged: %v", ev)
	}
}

func TestMultipleAuthors(t *testing.T) {
	a1 := mkProfile("Ana Costa", []sources.AffPeriod{{Institution: "U Alpha", Country: "X", StartYear: 2010}}, nil)
	a2 := mkProfile("Bo Li", nil, []profile.Publication{{Title: "Joint", Year: 2016}})
	reviewer := mkProfile("Lei Zhou", []sources.AffPeriod{{Institution: "U Alpha", Country: "X", StartYear: 2012}},
		[]profile.Publication{{Title: "Joint", Year: 2016}})
	d := NewDetector(Config{CoAuthorship: true, Affiliation: AffiliationUniversity, HorizonYear: 2018})
	ev := d.Detect(reviewer, []*profile.Profile{a1, a2})
	rules := map[Rule]int{}
	for _, e := range ev {
		rules[e.Rule]++
	}
	if rules[RuleSharedUniversity] != 1 || rules[RuleCoAuthorship] != 1 {
		t.Fatalf("evidence = %v", ev)
	}
}

func TestRulesOff(t *testing.T) {
	shared := profile.Publication{Title: "Joint", Year: 2016}
	author := mkProfile("Ana Costa",
		[]sources.AffPeriod{{Institution: "U", Country: "X", StartYear: 2010}},
		[]profile.Publication{shared})
	reviewer := mkProfile("Lei Zhou",
		[]sources.AffPeriod{{Institution: "U", Country: "X", StartYear: 2010}},
		[]profile.Publication{shared})
	d := NewDetector(Config{}) // everything off
	if ev := d.Detect(reviewer, []*profile.Profile{author}); len(ev) != 0 {
		t.Fatalf("disabled detector flagged: %v", ev)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(2018)
	if !cfg.CoAuthorship || cfg.Affiliation != AffiliationUniversity || cfg.HorizonYear != 2018 {
		t.Fatalf("DefaultConfig = %+v", cfg)
	}
}

func TestEvidenceString(t *testing.T) {
	e := Evidence{Rule: RuleCoAuthorship, Author: "Ana", Detail: "co-authored \"X\" (2016)"}
	if got := e.String(); got == "" || got[:13] != "co-authorship" {
		t.Fatalf("String = %q", got)
	}
}

func TestAffiliationLevelString(t *testing.T) {
	if AffiliationOff.String() != "off" || AffiliationUniversity.String() != "university" ||
		AffiliationCountry.String() != "country" {
		t.Fatal("level strings wrong")
	}
	if AffiliationLevel(99).String() == "" {
		t.Fatal("unknown level should stringify")
	}
}

func TestCountryFallbackToProfileCountry(t *testing.T) {
	// Neither side has history with countries, but both profiles carry a
	// current Country field.
	author := &profile.Profile{Name: "Ana", Country: "Estonia"}
	reviewer := &profile.Profile{Name: "Lei", Country: "estonia"}
	d := NewDetector(Config{Affiliation: AffiliationCountry, HorizonYear: 2018})
	if ev := d.Detect(reviewer, []*profile.Profile{author}); len(ev) != 1 {
		t.Fatalf("country fallback = %v", ev)
	}
}
