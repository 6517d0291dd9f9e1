package coi

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"minaret/internal/nameres"
	"minaret/internal/ontology"
	"minaret/internal/profile"
	"minaret/internal/scholarly"
	"minaret/internal/sources"
)

// oracleDetect is Detector.Detect as it was before authors were prepared
// once per manuscript, kept verbatim: every (reviewer × author) pair
// rebuilds the author's publication keys and country set and
// re-normalizes every title and co-author name. profile.NormalizeTitle
// and nameres.NamesCompatible are checked against their own oracles in
// their packages.
func oracleDetect(cfg Config, reviewer *profile.Profile, authors []*profile.Profile) []Evidence {
	var out []Evidence
	for _, a := range authors {
		if cfg.CoAuthorship {
			out = append(out, oracleCoAuthorship(cfg, reviewer, a)...)
		}
		if cfg.Affiliation >= AffiliationUniversity {
			out = append(out, oracleSharedUniversity(cfg, reviewer, a)...)
		}
		if cfg.Affiliation >= AffiliationCountry {
			out = append(out, oracleSharedCountry(cfg, reviewer, a)...)
		}
	}
	return out
}

func oracleCoAuthorship(cfg Config, reviewer, author *profile.Profile) []Evidence {
	minYear := 0
	if cfg.CoAuthorWindowYears > 0 {
		minYear = cfg.HorizonYear - cfg.CoAuthorWindowYears + 1
	}
	authorPubs := map[string]bool{}
	for _, p := range author.Publications {
		if p.Year >= minYear {
			authorPubs[profile.NormalizeTitle(p.Title)+"|"+fmt.Sprint(p.Year)] = true
		}
	}
	var out []Evidence
	seen := map[string]bool{}
	for _, p := range reviewer.Publications {
		if p.Year < minYear {
			continue
		}
		key := profile.NormalizeTitle(p.Title) + "|" + fmt.Sprint(p.Year)
		matched := authorPubs[key]
		if !matched {
			for _, co := range p.CoAuthors {
				if nameres.NamesCompatible(co, author.Name) {
					matched = true
					break
				}
			}
		}
		if matched && !seen[key] {
			seen[key] = true
			out = append(out, Evidence{
				Rule:   RuleCoAuthorship,
				Author: author.Name,
				Detail: fmt.Sprintf("co-authored %q (%d)", p.Title, p.Year),
				Year:   p.Year,
			})
		}
	}
	return out
}

func oracleSharedUniversity(cfg Config, reviewer, author *profile.Profile) []Evidence {
	minYear := 0
	if cfg.AffiliationWindowYears > 0 {
		minYear = cfg.HorizonYear - cfg.AffiliationWindowYears + 1
	}
	var out []Evidence
	for _, ra := range reviewer.AffiliationHistory {
		if !activeSince(ra, minYear, cfg.HorizonYear) {
			continue
		}
		for _, aa := range author.AffiliationHistory {
			if !activeSince(aa, minYear, cfg.HorizonYear) {
				continue
			}
			if ra.Institution != "" && strings.EqualFold(ra.Institution, aa.Institution) {
				out = append(out, Evidence{
					Rule:   RuleSharedUniversity,
					Author: author.Name,
					Detail: "both affiliated with " + ra.Institution,
					Year:   maxInt(ra.StartYear, aa.StartYear),
				})
				return out
			}
		}
	}
	return out
}

func oracleSharedCountry(cfg Config, reviewer, author *profile.Profile) []Evidence {
	minYear := 0
	if cfg.AffiliationWindowYears > 0 {
		minYear = cfg.HorizonYear - cfg.AffiliationWindowYears + 1
	}
	countries := map[string]bool{}
	for _, aa := range author.AffiliationHistory {
		if activeSince(aa, minYear, cfg.HorizonYear) && aa.Country != "" {
			countries[strings.ToLower(aa.Country)] = true
		}
	}
	if author.Country != "" {
		countries[strings.ToLower(author.Country)] = true
	}
	var out []Evidence
	for _, ra := range reviewer.AffiliationHistory {
		if !activeSince(ra, minYear, cfg.HorizonYear) || ra.Country == "" {
			continue
		}
		if countries[strings.ToLower(ra.Country)] {
			out = append(out, Evidence{
				Rule:   RuleSharedCountry,
				Author: author.Name,
				Detail: "both in " + ra.Country,
			})
			return out
		}
	}
	if reviewer.Country != "" && countries[strings.ToLower(reviewer.Country)] && len(out) == 0 {
		out = append(out, Evidence{
			Rule:   RuleSharedCountry,
			Author: author.Name,
			Detail: "both in " + reviewer.Country,
		})
	}
	return out
}

// oracleConfigs span every rule combination with the co-authorship and
// affiliation windows both off and on.
func oracleConfigs(horizon int) []Config {
	var out []Config
	for _, co := range []bool{false, true} {
		for _, coWin := range []int{0, 4} {
			for _, aff := range []AffiliationLevel{AffiliationOff, AffiliationUniversity, AffiliationCountry} {
				for _, affWin := range []int{0, 3} {
					out = append(out, Config{
						CoAuthorship: co, CoAuthorWindowYears: coWin,
						Affiliation: aff, AffiliationWindowYears: affWin,
						HorizonYear: horizon,
					})
				}
			}
		}
	}
	return out
}

// checkAgainstOracle fails the test unless prepared (and Detector.Detect)
// return the oracle's Evidence; it returns that Evidence.
func checkAgainstOracle(t *testing.T, cfg Config, reviewer *profile.Profile, authors []*profile.Profile, prepared *Authors) []Evidence {
	t.Helper()
	want := oracleDetect(cfg, reviewer, authors)
	got := prepared.Detect(reviewer)
	if len(got) != 0 || len(want) != 0 {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %+v, reviewer %q vs authors %q:\n got    %v\n oracle %v",
				cfg, reviewer.Name, authorNames(authors), got, want)
		}
	}
	if dg := NewDetector(cfg).Detect(reviewer, authors); !reflect.DeepEqual(dg, got) {
		t.Fatalf("Detector.Detect = %v, prepared Detect = %v", dg, got)
	}
	return want
}

// requireEveryRule fails the test unless each rule fired at least once,
// so agreement was not shown on empty Evidence alone.
func requireEveryRule(t *testing.T, label string, rules map[Rule]int) {
	t.Helper()
	for _, r := range []Rule{RuleCoAuthorship, RuleSharedUniversity, RuleSharedCountry} {
		if rules[r] == 0 {
			t.Errorf("%s: rule %s never fired: %v", label, r, rules)
		}
	}
}

func authorNames(authors []*profile.Profile) []string {
	out := make([]string, len(authors))
	for i, a := range authors {
		out[i] = a.Name
	}
	return out
}

// corpusProfile builds a profile straight from corpus ground truth. Co-
// author names are rendered in full, initialed or index form in turn,
// the way sources differ in rendering them.
func corpusProfile(c *scholarly.Corpus, id scholarly.ScholarID) *profile.Profile {
	s := c.Scholar(id)
	p := &profile.Profile{Name: s.Name.Full()}
	for _, a := range s.Affiliations {
		p.AffiliationHistory = append(p.AffiliationHistory, sources.AffPeriod{
			Institution: a.Institution, Country: a.Country,
			StartYear: a.StartYear, EndYear: a.EndYear,
		})
		if a.Current() {
			p.Affiliation, p.Country = a.Institution, a.Country
		}
	}
	for k, pid := range s.Publications {
		pub := c.Publication(pid)
		var coAuthors []string
		for j, a := range pub.Authors {
			n := c.Scholar(a).Name
			switch (k + j) % 3 {
			case 0:
				coAuthors = append(coAuthors, n.Full())
			case 1:
				coAuthors = append(coAuthors, n.Initialed())
			default:
				coAuthors = append(coAuthors, n.Reversed())
			}
		}
		p.Publications = append(p.Publications, profile.Publication{
			Title: pub.Title, Year: pub.Year, CoAuthors: coAuthors,
		})
	}
	return p
}

// TestPreparedMatchesOracleOnScenarios: on a corpus carrying all four
// adversarial scenarios, every scenario manuscript's author list checked
// against every scholar yields the oracle's Evidence, order included,
// under every policy.
func TestPreparedMatchesOracleOnScenarios(t *testing.T) {
	o := ontology.Default()
	c := scholarly.MustGenerate(scholarly.GeneratorConfig{
		Seed: 11, NumScholars: 200, Topics: o.Topics(), Related: o.RelatedMap(),
		StartYear: 2008, HorizonYear: 2018,
	})
	seeds, err := scholarly.InjectScenarios(c, nil, scholarly.ScenarioOptions{Topics: o.Topics(), Related: o.RelatedMap()})
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != len(scholarly.ScenarioNames()) {
		t.Fatalf("%d seeds for %d scenarios", len(seeds), len(scholarly.ScenarioNames()))
	}
	scholars := make([]*profile.Profile, len(c.Scholars))
	for i := range c.Scholars {
		scholars[i] = corpusProfile(c, scholarly.ScholarID(i))
	}
	for _, seed := range seeds {
		rules := map[Rule]int{}
		authors := []*profile.Profile{scholars[seed.Lead]}
		for _, id := range seed.CoAuthors {
			authors = append(authors, scholars[id])
		}
		for _, cfg := range oracleConfigs(c.HorizonYear) {
			prepared := NewDetector(cfg).Prepare(authors)
			for _, r := range scholars {
				for _, ev := range checkAgainstOracle(t, cfg, r, authors, prepared) {
					rules[ev.Rule]++
				}
			}
		}
		requireEveryRule(t, seed.Scenario, rules)
	}
}

// Randomized profiles: names and titles drawn from pieces that stress
// the normalizers, institutions and countries that differ only in case
// folding, and years around the horizon so both windows cut.
var (
	randNames = []string{
		"Lei Zhou", "L. Zhou", "Zhou, Lei", "zhou lei", "Ana Costa", "A. Costa",
		"Costa, Ana", "Jean-Luc O'Brien", "J.-L. O'Brien", "O'Brien, Jean-Luc",
		"İlker Kaya", "ilker kaya", "\u212aim Lee", "kim lee", "José Müller",
		"jose muller", "x*y Zhou", "xy Zhou", "\xffZhou", "李雷", "Σίσυφος Π.",
		"Zhou", "", "  ", "-",
	}
	randTitles = []string{
		"A Shared Paper", "a shared   PAPER!", "A\tShared-Paper", "İndex Structures",
		"index structures", "\u212aernel Methods", "kernel methods", "x*y Joins",
		"xy joins", "Naïve Bayes", "naive bayes", "a\xffb Streams", "ab streams",
		"Σύστημα", "", "RDF (v2)", "rdf v2",
	}
	randInstitutions = []string{
		"University of Tartu", "university of tartu", "UNIVERSITY OF TARTU",
		"ΟΔΟΣ", "οδοσ", "οδος", "Stadt U", "stadt u", "\u212a U", "k u",
		"İTÜ", "itü", "", "ETH",
	}
	randCountries = []string{
		"Estonia", "ESTONIA", "estonia", "Türkiye", "TÜRKİYE", "türki̇ye",
		"Ελλάς", "ελλάσ", "ελλάς", "\xffland", "\ufffdland", "", "Japan",
	}
)

func pick(rng *rand.Rand, s []string) string { return s[rng.Intn(len(s))] }

func randomProfile(rng *rand.Rand) *profile.Profile {
	p := &profile.Profile{Name: pick(rng, randNames)}
	if rng.Intn(3) == 0 {
		p.Country = pick(rng, randCountries)
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		start := 0
		if rng.Intn(4) > 0 {
			start = 2005 + rng.Intn(14)
		}
		end := 0
		if rng.Intn(2) == 0 {
			end = 2008 + rng.Intn(11)
		}
		p.AffiliationHistory = append(p.AffiliationHistory, sources.AffPeriod{
			Institution: pick(rng, randInstitutions), Country: pick(rng, randCountries),
			StartYear: start, EndYear: end,
		})
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		pub := profile.Publication{Title: pick(rng, randTitles), Year: 2010 + rng.Intn(9)}
		for j, m := 0, rng.Intn(4); j < m; j++ {
			pub.CoAuthors = append(pub.CoAuthors, pick(rng, randNames))
		}
		p.Publications = append(p.Publications, pub)
	}
	return p
}

// TestPreparedMatchesOracleRandomized: over randomized profiles and
// policies, the prepared detector yields the oracle's Evidence, order
// included.
func TestPreparedMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	configs := oracleConfigs(2018)
	rules := map[Rule]int{}
	for i := 0; i < 4000; i++ {
		authors := make([]*profile.Profile, 1+rng.Intn(3))
		for k := range authors {
			authors[k] = randomProfile(rng)
		}
		cfg := configs[rng.Intn(len(configs))]
		prepared := NewDetector(cfg).Prepare(authors)
		for k := 0; k < 20; k++ {
			for _, ev := range checkAgainstOracle(t, cfg, randomProfile(rng), authors, prepared) {
				rules[ev.Rule]++
			}
		}
	}
	requireEveryRule(t, "randomized", rules)
}

// TestDetectCleanReviewerAllocatesNothing: scanning a reviewer with no
// conflict, under the strictest policy, allocates nothing.
func TestDetectCleanReviewerAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig(2018)
	cfg.Affiliation = AffiliationCountry
	cfg.CoAuthorWindowYears = 6
	author := mkProfile("Ana Costa", []sources.AffPeriod{
		{Institution: "University of Tartu", Country: "Estonia", StartYear: 2012},
	}, []profile.Publication{{Title: "Author Paper", Year: 2016, CoAuthors: []string{"B. Silva"}}})
	author.Country = "Estonia"
	reviewer := mkProfile("Lei Zhou", []sources.AffPeriod{
		{Institution: "Fudan University", Country: "China", StartYear: 2009, EndYear: 2014},
		{Institution: "Universität Wien", Country: "Österreich", StartYear: 2014},
	}, []profile.Publication{
		{Title: "Streaming RDF Joins, Revisited", Year: 2017, CoAuthors: []string{"L. Zhou", "Zhou, Wei", "José Müller"}},
		{Title: "On Graphs for Streams!", Year: 2015, CoAuthors: []string{"Lei Zhou", "A. Silva"}},
		{Title: "Old Work", Year: 2001, CoAuthors: []string{"Ana Costa"}},
	})
	reviewer.Country = "ÖSTERREICH"
	prepared := NewDetector(cfg).Prepare([]*profile.Profile{author})
	if ev := prepared.Detect(reviewer); len(ev) != 0 {
		t.Fatalf("clean reviewer conflicts: %v", ev)
	}
	if allocs := testing.AllocsPerRun(100, func() { prepared.Detect(reviewer) }); allocs != 0 {
		t.Fatalf("Detect on a clean reviewer allocates %.1f times per run", allocs)
	}
}
