// Package coi implements MINARET's conflict-of-interest detection. A
// candidate reviewer conflicts with a manuscript when they previously
// co-authored with any of its authors, or when they share an affiliation
// with an author — at the university or country level, as configured by
// the editor (paper, Section 2.2).
//
// Detection runs in two steps: Detector.Prepare indexes a manuscript's
// authors once (publication keys, tokenized names, institutions,
// countries), and Authors.Detect scans each candidate against that index
// without allocating unless it finds a conflict.
//
// Only published conflicts can be found: a shared institution that no
// source lists for one of the two scholars goes undetected. Full
// employment histories come only from ORCID; the other sources report
// the current affiliation alone.
package coi

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"minaret/internal/nameres"
	"minaret/internal/profile"
	"minaret/internal/sources"
)

// AffiliationLevel selects how strictly shared affiliations conflict.
type AffiliationLevel int

const (
	// AffiliationOff disables the shared-affiliation rule.
	AffiliationOff AffiliationLevel = iota
	// AffiliationUniversity conflicts reviewers sharing an institution
	// with an author.
	AffiliationUniversity
	// AffiliationCountry additionally conflicts reviewers sharing a
	// country with an author.
	AffiliationCountry
)

func (l AffiliationLevel) String() string {
	switch l {
	case AffiliationOff:
		return "off"
	case AffiliationUniversity:
		return "university"
	case AffiliationCountry:
		return "country"
	default:
		return fmt.Sprintf("AffiliationLevel(%d)", int(l))
	}
}

// Config is the editor-facing COI policy.
type Config struct {
	// CoAuthorship enables the prior co-authorship rule.
	CoAuthorship bool
	// CoAuthorWindowYears limits co-authorship conflicts to papers within
	// the last N years before the horizon; 0 means any time.
	CoAuthorWindowYears int
	// Affiliation selects the shared-affiliation strictness.
	Affiliation AffiliationLevel
	// AffiliationWindowYears limits affiliation overlap to periods active
	// within the last N years; 0 means entire history.
	AffiliationWindowYears int
	// HorizonYear is "now" for window computations.
	HorizonYear int
}

// DefaultConfig mirrors the demo's defaults: both rules on, university
// level, co-authorship at any time, affiliations from the whole history.
func DefaultConfig(horizon int) Config {
	return Config{
		CoAuthorship: true,
		Affiliation:  AffiliationUniversity,
		HorizonYear:  horizon,
	}
}

// Rule names the COI rule that fired.
type Rule string

const (
	RuleCoAuthorship     Rule = "co-authorship"
	RuleSharedUniversity Rule = "shared-university"
	RuleSharedCountry    Rule = "shared-country"
)

// Evidence is one detected conflict with its explanation.
type Evidence struct {
	Rule Rule
	// Author is the manuscript author involved.
	Author string
	// Detail is human-readable ("co-authored 'X' in 2016",
	// "both at University of Tartu").
	Detail string
	// Year is the year of the conflicting event (0 when not applicable).
	Year int
}

func (e Evidence) String() string {
	return fmt.Sprintf("%s with %s: %s", e.Rule, e.Author, e.Detail)
}

// Detector evaluates the COI policy against assembled profiles.
type Detector struct {
	cfg Config
}

// NewDetector builds a Detector.
func NewDetector(cfg Config) *Detector { return &Detector{cfg: cfg} }

// Config returns the detector's policy.
func (d *Detector) Config() Config { return d.cfg }

// Detect returns all conflicts between the reviewer and any manuscript
// author. Empty result means no conflict under the configured policy.
// A caller checking many reviewers against one author list prepares it
// once with Prepare instead.
func (d *Detector) Detect(reviewer *profile.Profile, authors []*profile.Profile) []Evidence {
	return d.Prepare(authors).Detect(reviewer)
}

// Authors is one manuscript's author list indexed for conflict checks:
// everything Detect needs from the authors is derived once, so checking
// each candidate reviewer only reads. It is immutable and safe for
// concurrent use.
type Authors struct {
	cfg Config
	// minPubYear and minAffYear are the rules' window starts (0: any).
	minPubYear, minAffYear int
	list                   []author
}

// author is one manuscript author's index.
type author struct {
	name string
	// parsed is the name tokenized for co-author matching.
	parsed nameres.Name
	// pubs holds the pubKey of each publication inside the window.
	pubs map[string]struct{}
	// affs are the active affiliation periods naming an institution.
	affs []sources.AffPeriod
	// countries are the lower-cased countries of the active periods
	// plus the profile's own.
	countries []string
}

// Prepare indexes a manuscript's authors under the detector's policy.
func (d *Detector) Prepare(authors []*profile.Profile) *Authors {
	cfg := d.cfg
	a := &Authors{cfg: cfg, list: make([]author, len(authors))}
	if cfg.CoAuthorWindowYears > 0 {
		a.minPubYear = cfg.HorizonYear - cfg.CoAuthorWindowYears + 1
	}
	if cfg.AffiliationWindowYears > 0 {
		a.minAffYear = cfg.HorizonYear - cfg.AffiliationWindowYears + 1
	}
	for i, p := range authors {
		au := &a.list[i]
		au.name = p.Name
		if cfg.CoAuthorship {
			au.parsed = nameres.ParseName(p.Name)
			au.pubs = make(map[string]struct{}, len(p.Publications))
			for _, pub := range p.Publications {
				if pub.Year >= a.minPubYear {
					au.pubs[string(pubKey(nil, pub))] = struct{}{}
				}
			}
		}
		for _, aa := range p.AffiliationHistory {
			if !activeSince(aa, a.minAffYear, cfg.HorizonYear) {
				continue
			}
			if aa.Institution != "" {
				au.affs = append(au.affs, aa)
			}
			if aa.Country != "" {
				au.countries = append(au.countries, strings.ToLower(aa.Country))
			}
		}
		if p.Country != "" {
			au.countries = append(au.countries, strings.ToLower(p.Country))
		}
	}
	return a
}

// Detect returns all conflicts between the reviewer and the prepared
// authors, in author order and, per author, co-authorship before shared
// university before shared country. A nil Authors has no authors. It
// allocates only for the Evidence it returns.
func (a *Authors) Detect(reviewer *profile.Profile) []Evidence {
	if a == nil || len(a.list) == 0 {
		return nil
	}
	var hits []bool
	if a.cfg.CoAuthorship {
		hits = a.coAuthorHits(reviewer)
	}
	var out []Evidence
	for i := range a.list {
		au := &a.list[i]
		if hits != nil {
			out = a.appendCoAuthorship(out, reviewer, au, hits[i*len(reviewer.Publications):])
		}
		if a.cfg.Affiliation >= AffiliationUniversity {
			out = a.appendSharedUniversity(out, reviewer, au)
		}
		if a.cfg.Affiliation >= AffiliationCountry {
			out = a.appendSharedCountry(out, reviewer, au)
		}
	}
	return out
}

// coAuthorHits walks the reviewer's publications once and marks, at
// [author*len(pubs) + pub], each publication inside the window that an
// author shares: by publication identity (normalized title + year in
// both track records) or by the author's name in its co-author list.
// The double check matters because sources differ in linking quality.
// It returns nil, having allocated nothing, when no author shares any.
func (a *Authors) coAuthorHits(reviewer *profile.Profile) []bool {
	pubs := reviewer.Publications
	var hits []bool
	var keyBuf [256]byte
	var nameBuf [64]byte
	for j, p := range pubs {
		if p.Year < a.minPubYear {
			continue
		}
		key := pubKey(keyBuf[:0], p)
		for i := range a.list {
			if _, ok := a.list[i].pubs[string(key)]; ok {
				if hits == nil {
					hits = make([]bool, len(a.list)*len(pubs))
				}
				hits[i*len(pubs)+j] = true
			}
		}
		for _, co := range p.CoAuthors {
			coName := nameres.ParseNameInto(nameBuf[:0], co)
			for i := range a.list {
				if (hits == nil || !hits[i*len(pubs)+j]) && a.list[i].parsed.Compatible(coName) {
					if hits == nil {
						hits = make([]bool, len(a.list)*len(pubs))
					}
					hits[i*len(pubs)+j] = true
				}
			}
		}
	}
	return hits
}

// appendCoAuthorship emits one author's co-authorship evidence from
// their row of coAuthorHits, once per distinct publication.
func (a *Authors) appendCoAuthorship(out []Evidence, reviewer *profile.Profile, au *author, hits []bool) []Evidence {
	var seen map[string]bool
	for j, p := range reviewer.Publications {
		if !hits[j] {
			continue
		}
		key := string(pubKey(nil, p))
		if seen[key] {
			continue
		}
		if seen == nil {
			seen = map[string]bool{}
		}
		seen[key] = true
		out = append(out, Evidence{
			Rule:   RuleCoAuthorship,
			Author: au.name,
			Detail: fmt.Sprintf("co-authored %q (%d)", p.Title, p.Year),
			Year:   p.Year,
		})
	}
	return out
}

// appendSharedUniversity emits at most one institution conflict per
// author: the first active reviewer period, in history order, naming an
// institution the author was active at.
func (a *Authors) appendSharedUniversity(out []Evidence, reviewer *profile.Profile, au *author) []Evidence {
	for _, ra := range reviewer.AffiliationHistory {
		if ra.Institution == "" || !activeSince(ra, a.minAffYear, a.cfg.HorizonYear) {
			continue
		}
		for _, aa := range au.affs {
			if strings.EqualFold(ra.Institution, aa.Institution) {
				return append(out, Evidence{
					Rule:   RuleSharedUniversity,
					Author: au.name,
					Detail: "both affiliated with " + ra.Institution,
					Year:   maxInt(ra.StartYear, aa.StartYear),
				})
			}
		}
	}
	return out
}

// appendSharedCountry emits at most one country conflict per author,
// from the reviewer's active periods first and their profile country
// last.
func (a *Authors) appendSharedCountry(out []Evidence, reviewer *profile.Profile, au *author) []Evidence {
	for _, ra := range reviewer.AffiliationHistory {
		if ra.Country != "" && activeSince(ra, a.minAffYear, a.cfg.HorizonYear) && au.inCountry(ra.Country) {
			return append(out, Evidence{Rule: RuleSharedCountry, Author: au.name, Detail: "both in " + ra.Country})
		}
	}
	if reviewer.Country != "" && au.inCountry(reviewer.Country) {
		out = append(out, Evidence{Rule: RuleSharedCountry, Author: au.name, Detail: "both in " + reviewer.Country})
	}
	return out
}

// inCountry reports whether strings.ToLower(country) is one of the
// author's countries, lower-casing into a stack buffer.
func (au *author) inCountry(country string) bool {
	var buf [64]byte
	lower := buf[:0]
	for _, r := range country {
		lower = utf8.AppendRune(lower, unicode.ToLower(r))
	}
	for _, c := range au.countries {
		if c == string(lower) {
			return true
		}
	}
	return false
}

// pubKey appends a publication's identity, its normalized title and
// year, to dst.
func pubKey(dst []byte, p profile.Publication) []byte {
	dst = profile.AppendNormalizedTitle(dst, p.Title)
	dst = append(dst, '|')
	return strconv.AppendInt(dst, int64(p.Year), 10)
}

// activeSince reports whether an affiliation period was active in
// [minYear, horizon]. minYear 0 accepts everything; an EndYear of 0
// means the affiliation is current.
func activeSince(a sources.AffPeriod, minYear, horizon int) bool {
	if minYear == 0 {
		return true
	}
	end := a.EndYear
	if end == 0 {
		end = horizon
	}
	return end >= minYear && (a.StartYear == 0 || a.StartYear <= horizon)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
