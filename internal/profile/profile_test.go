package profile

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"minaret/internal/sources"
)

// recClient serves canned records keyed by site id.
type recClient struct {
	source string
	recs   map[string]*sources.Record
	err    error
}

func (c *recClient) Source() string { return c.source }
func (c *recClient) SearchAuthor(ctx context.Context, name string) ([]sources.Hit, error) {
	return nil, nil
}
func (c *recClient) Profile(ctx context.Context, id string) (*sources.Record, error) {
	if c.err != nil {
		return nil, c.err
	}
	r, ok := c.recs[id]
	if !ok {
		return nil, errors.New("not found")
	}
	return r, nil
}

func testRegistry() *sources.Registry {
	return sources.NewRegistry(
		&recClient{source: "dblp", recs: map[string]*sources.Record{
			"d1": {
				Source: "dblp", SiteID: "d1", Name: "Lei Zhou",
				Publications: []sources.PubRecord{
					{Title: "On Graphs for Streams", Year: 2017, Venue: "J1", Citations: 10,
						CoAuthors: []string{"Lei Zhou", "Ana Costa"}},
					{Title: "Old Paper", Year: 2010, Venue: "J2", Citations: 50},
				},
				Citations: 60,
			},
		}},
		&recClient{source: "scholar", recs: map[string]*sources.Record{
			"s1": {
				Source: "scholar", SiteID: "s1", Name: "Lei Zhou",
				Affiliation: "University of Tartu",
				Interests:   []string{"graph databases", "Stream Processing"},
				Publications: []sources.PubRecord{
					// Same 2017 paper, higher citation count (fresher site).
					{Title: "On Graphs for Streams!", Year: 2017, Venue: "J1", Citations: 14},
					{Title: "Newer Paper", Year: 2018, Venue: "J3", Citations: 2},
				},
				Citations: 66, HIndex: 2, I10Index: 1,
			},
		}},
		&recClient{source: "publons", recs: map[string]*sources.Record{
			"p1": {
				Source: "publons", SiteID: "p1", Name: "Lei Zhou",
				Country: "Estonia", ReviewCount: 12,
				Reviews: []sources.ReviewRecord{
					{Venue: "J1", Year: 2018, Days: 20, Quality: 0.8},
					{Venue: "J9", Year: 2017, Days: 35, Quality: 0.6},
				},
				Interests: []string{"stream processing"},
			},
		}},
		&recClient{source: "orcid", recs: map[string]*sources.Record{
			"o1": {
				Source: "orcid", SiteID: "o1",
				Given: "Lei", Family: "Zhou", Name: "Lei Zhou",
				Affiliation: "University of Tartu", Country: "Estonia",
				AffiliationHistory: []sources.AffPeriod{
					{Institution: "Beijing University", Country: "China", StartYear: 2005, EndYear: 2012},
					{Institution: "University of Tartu", Country: "Estonia", StartYear: 2012},
				},
			},
		}},
	)
}

func fullIDs() map[string]string {
	return map[string]string{"dblp": "d1", "scholar": "s1", "publons": "p1", "orcid": "o1"}
}

func TestAssembleMergesAllSources(t *testing.T) {
	a := NewAssembler(testRegistry(), 4)
	p, err := a.Assemble(context.Background(), fullIDs())
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Lei Zhou" || p.Given != "Lei" || p.Family != "Zhou" {
		t.Errorf("name = %q (%q/%q)", p.Name, p.Given, p.Family)
	}
	if p.Affiliation != "University of Tartu" || p.Country != "Estonia" {
		t.Errorf("affiliation = %q/%q", p.Affiliation, p.Country)
	}
	if len(p.AffiliationHistory) != 2 {
		t.Fatalf("history = %d periods", len(p.AffiliationHistory))
	}
	// Interests: union, case-insensitive dedupe, sorted. Publons's
	// lower-case form is seen first (sources merge in name order), so its
	// display form wins.
	want := []string{"graph databases", "stream processing"}
	if !reflect.DeepEqual(p.Interests, want) {
		t.Errorf("interests = %v, want %v", p.Interests, want)
	}
	// Publications: "On Graphs for Streams" deduped across dblp/scholar
	// (punctuation-insensitive), citations take the max (14).
	if len(p.Publications) != 3 {
		t.Fatalf("publications = %d, want 3 deduped", len(p.Publications))
	}
	if p.Publications[0].Year != 2018 {
		t.Errorf("pubs not sorted desc: first year %d", p.Publications[0].Year)
	}
	var graphs *Publication
	for i := range p.Publications {
		if NormalizeTitle(p.Publications[i].Title) == "on graphs for streams" {
			graphs = &p.Publications[i]
		}
	}
	if graphs == nil {
		t.Fatal("deduped paper missing")
	}
	if graphs.Citations != 14 {
		t.Errorf("dedup citations = %d, want max 14", graphs.Citations)
	}
	if len(graphs.CoAuthors) != 2 {
		t.Errorf("coauthors = %v, want kept from dblp", graphs.CoAuthors)
	}
	if len(graphs.Sources) != 2 {
		t.Errorf("pub sources = %v", graphs.Sources)
	}
	if p.Citations != 66 {
		t.Errorf("citations = %d, want max 66", p.Citations)
	}
	if p.ReviewCount != 12 || len(p.Reviews) != 2 {
		t.Errorf("reviews = %d/%d", p.ReviewCount, len(p.Reviews))
	}
	if !reflect.DeepEqual(p.SourcesUsed, []string{"dblp", "orcid", "publons", "scholar"}) {
		t.Errorf("sources used = %v", p.SourcesUsed)
	}
}

func TestAssemblePartialFailure(t *testing.T) {
	reg := sources.NewRegistry(
		&recClient{source: "dblp", err: errors.New("site down")},
		&recClient{source: "scholar", recs: map[string]*sources.Record{
			"s1": {Source: "scholar", SiteID: "s1", Name: "Ana Costa", Citations: 5},
		}},
	)
	a := NewAssembler(reg, 2)
	p, err := a.Assemble(context.Background(), map[string]string{"dblp": "x", "scholar": "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "Ana Costa" {
		t.Errorf("name = %q", p.Name)
	}
	if _, ok := p.SourceErrors["dblp"]; !ok {
		t.Error("dblp failure not recorded")
	}
	if len(p.SourcesUsed) != 1 {
		t.Errorf("sources used = %v", p.SourcesUsed)
	}
}

func TestAssembleAllFail(t *testing.T) {
	reg := sources.NewRegistry(
		&recClient{source: "dblp", err: errors.New("down")},
	)
	a := NewAssembler(reg, 1)
	_, err := a.Assemble(context.Background(), map[string]string{"dblp": "x"})
	var nse *NoSourcesError
	if !errors.As(err, &nse) {
		t.Fatalf("err = %v, want NoSourcesError", err)
	}
}

func TestAssembleUnknownSource(t *testing.T) {
	a := NewAssembler(sources.NewRegistry(), 1)
	_, err := a.Assemble(context.Background(), map[string]string{"mystery": "m1"})
	if err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestSynthesizedAffiliationHistory(t *testing.T) {
	reg := sources.NewRegistry(
		&recClient{source: "scholar", recs: map[string]*sources.Record{
			"s1": {Source: "scholar", SiteID: "s1", Name: "X Y", Affiliation: "Somewhere U", Country: "Nowhere"},
		}},
	)
	a := NewAssembler(reg, 1)
	p, err := a.Assemble(context.Background(), map[string]string{"scholar": "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.AffiliationHistory) != 1 || p.AffiliationHistory[0].Institution != "Somewhere U" {
		t.Fatalf("synth history = %+v", p.AffiliationHistory)
	}
}

func TestNormalizeTitle(t *testing.T) {
	cases := map[string]string{
		"On Graphs, for Streams!": "on graphs for streams",
		"  Spaced   Out  ":        "spaced out",
		"MixedCASE-2018 (v2)":     "mixedcase2018 v2",
	}
	for in, want := range cases {
		if got := NormalizeTitle(in); got != want {
			t.Errorf("NormalizeTitle(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestProfileHelpers(t *testing.T) {
	p := &Profile{
		Publications: []Publication{
			{Title: "A", Year: 2018, Venue: "TODS"},
			{Title: "B", Year: 2015, Venue: "VLDBJ"},
			{Title: "C", Year: 2016, Venue: "TODS"},
		},
		Reviews: []sources.ReviewRecord{
			{Venue: "TODS", Year: 2018, Days: 30},
			{Venue: "TKDE", Year: 2017, Days: 10},
			{Venue: "tods", Year: 2016, Days: 50},
		},
		AffiliationHistory: []sources.AffPeriod{
			{Institution: "U1", Country: "Estonia", StartYear: 2000, EndYear: 2010},
			{Institution: "U2", Country: "Germany", StartYear: 2010},
		},
		Country: "Germany",
	}
	if p.LastActiveYear() != 2018 {
		t.Errorf("LastActiveYear = %d", p.LastActiveYear())
	}
	if got := p.ReviewsForVenue("TODS"); got != 2 {
		t.Errorf("ReviewsForVenue = %d (case-insensitive expected)", got)
	}
	if got := p.PublicationsInVenue("tods"); got != 2 {
		t.Errorf("PublicationsInVenue = %d", got)
	}
	if got := p.MedianReviewDays(); got != 30 {
		t.Errorf("MedianReviewDays = %d", got)
	}
	if !p.HasAffiliation("u1", 0, 2018) {
		t.Error("HasAffiliation any-time failed")
	}
	if p.HasAffiliation("U1", 2015, 2018) {
		t.Error("window should exclude U1 (ended 2010)")
	}
	if !p.HasAffiliation("U2", 2015, 2018) {
		t.Error("open-ended affiliation should pass window")
	}
	if got := p.Countries(); !reflect.DeepEqual(got, []string{"Estonia", "Germany"}) {
		t.Errorf("Countries = %v", got)
	}
	if len(p.PubYears()) != 3 || p.PubYears()[0] != 2018 {
		t.Errorf("PubYears = %v", p.PubYears())
	}
}

func TestEmptyProfileHelpers(t *testing.T) {
	p := &Profile{}
	if p.MedianReviewDays() != 0 || p.LastActiveYear() != 0 {
		t.Fatal("empty profile helpers should be zero")
	}
	if p.Countries() != nil && len(p.Countries()) != 0 {
		t.Fatal("empty countries")
	}
}

// TestSummaryMirrorsProfile: every Summary field is the Profile field of
// the same name and type (so an encoded summary decodes into a Profile),
// and Summary copies each of them; only the track record is left out.
func TestSummaryMirrorsProfile(t *testing.T) {
	p := &Profile{
		Name: "Ada Lovelace", Given: "Ada", Family: "Lovelace",
		SiteIDs:     map[string]string{"dblp": "p1"},
		Affiliation: "Analytical Society", Country: "UK",
		AffiliationHistory: []sources.AffPeriod{{Institution: "Analytical Society"}},
		Interests:          []string{"engines"},
		Publications:       []Publication{{Title: "Notes", Year: 1843}},
		Citations:          321, HIndex: 12, I10Index: 7,
		Reviews:     []sources.ReviewRecord{{Venue: "Memoirs"}},
		ReviewCount: 1,
		SourcesUsed: []string{"dblp"}, SourceErrors: map[string]string{"acm": "503"},
	}
	sum := reflect.ValueOf(p.Summary()).Elem()
	full := reflect.ValueOf(p).Elem()
	left := map[string]bool{}
	for i := 0; i < full.NumField(); i++ {
		left[full.Type().Field(i).Name] = true
	}
	for i := 0; i < sum.NumField(); i++ {
		f := sum.Type().Field(i)
		pf, ok := full.Type().FieldByName(f.Name)
		if !ok || pf.Type != f.Type || pf.Tag != f.Tag {
			t.Fatalf("Summary.%s %v has no Profile twin", f.Name, f.Type)
		}
		if !reflect.DeepEqual(sum.Field(i).Interface(), full.FieldByName(f.Name).Interface()) {
			t.Errorf("Summary().%s = %v, profile holds %v", f.Name, sum.Field(i), full.FieldByName(f.Name))
		}
		delete(left, f.Name)
	}
	want := map[string]bool{"AffiliationHistory": true, "Publications": true, "Reviews": true}
	if !reflect.DeepEqual(left, want) {
		t.Fatalf("Summary leaves out %v, want only the track record %v", left, want)
	}
	if (*Profile)(nil).Summary() != nil {
		t.Fatal("nil profile has a summary")
	}
}
