// Package filter implements MINARET's candidate filtering phase: the
// conflict-of-interest exclusion, the keyword matching-score threshold,
// the editor's expertise constraints, and — in conference mode — the
// programme-committee membership restriction (paper, Sections 2.2 and 3).
package filter

import (
	"fmt"
	"strings"

	"minaret/internal/coi"
	"minaret/internal/nameres"
	"minaret/internal/profile"
)

// ExpertiseConstraints are the editor's user-defined filtering criteria.
// Zero-valued maxima mean "unbounded"; zero minima mean "no floor".
type ExpertiseConstraints struct {
	MinCitations int
	MaxCitations int
	MinHIndex    int
	MaxHIndex    int
	MinReviews   int
	MaxReviews   int
	MinPubs      int
}

// Violations returns a description per violated constraint (empty =
// passes).
func (e ExpertiseConstraints) Violations(p *profile.Profile) []string {
	var out []string
	check := func(name string, val, lo, hi int) {
		if lo > 0 && val < lo {
			out = append(out, fmt.Sprintf("%s %d below minimum %d", name, val, lo))
		}
		if hi > 0 && val > hi {
			out = append(out, fmt.Sprintf("%s %d above maximum %d", name, val, hi))
		}
	}
	check("citations", p.Citations, e.MinCitations, e.MaxCitations)
	check("h-index", p.HIndex, e.MinHIndex, e.MaxHIndex)
	check("reviews", p.ReviewCount, e.MinReviews, e.MaxReviews)
	check("publications", len(p.Publications), e.MinPubs, 0)
	return out
}

// Config is the complete filtering policy for one recommendation run.
type Config struct {
	// COI is the conflict-of-interest policy.
	COI coi.Config
	// MinKeywordScore drops candidates whose best expanded-keyword
	// similarity falls below the threshold (paper: "the editor can
	// specify a threshold on the similarity score").
	MinKeywordScore float64
	// Expertise are the editor's numeric constraints.
	Expertise ExpertiseConstraints
	// PCMembers, when non-empty, retains only candidates whose name
	// matches a programme-committee member (conference mode).
	PCMembers []string
	// BlockedReviewers are editor-entered names to exclude regardless of
	// automated checks — the manual conflict list every editorial system
	// keeps (authors' "opposed reviewers", known disputes).
	BlockedReviewers []string
}

// Reason explains why a candidate was removed.
type Reason struct {
	Kind string // "coi" | "keyword-score" | "expertise" | "not-pc-member"
	// Detail is human-readable.
	Detail string
	// COI carries the conflict evidence for Kind=="coi".
	COI []coi.Evidence
}

// Decision is the filtering outcome for one candidate.
type Decision struct {
	Kept    bool
	Reasons []Reason // empty when kept
}

// Filter applies the configured policy.
type Filter struct {
	cfg      Config
	detector *coi.Detector
	pcSet    map[string]bool
	// blocked is cfg.BlockedReviewers, tokenized once.
	blocked []nameres.Name
}

// New builds a Filter from a config.
func New(cfg Config) *Filter {
	f := &Filter{cfg: cfg, detector: coi.NewDetector(cfg.COI)}
	if len(cfg.PCMembers) > 0 {
		f.pcSet = make(map[string]bool, len(cfg.PCMembers))
		for _, m := range cfg.PCMembers {
			f.pcSet[normName(m)] = true
		}
	}
	for _, b := range cfg.BlockedReviewers {
		f.blocked = append(f.blocked, nameres.ParseName(b))
	}
	return f
}

// Config returns the filter's policy.
func (f *Filter) Config() Config { return f.cfg }

// Prepare indexes the manuscript authors' assembled profiles for the
// COI policy, once per manuscript.
func (f *Filter) Prepare(authors []*profile.Profile) *coi.Authors {
	return f.detector.Prepare(authors)
}

// Evaluate decides one candidate. bestKeywordScore is the maximum
// expanded-keyword similarity that retrieved the candidate; authors are
// the manuscript's authors from Prepare (nil: none).
func (f *Filter) Evaluate(reviewer *profile.Profile, bestKeywordScore float64, authors *coi.Authors) Decision {
	var reasons []Reason

	if ev := authors.Detect(reviewer); len(ev) > 0 {
		reasons = append(reasons, Reason{
			Kind:   "coi",
			Detail: fmt.Sprintf("%d conflict(s), first: %s", len(ev), ev[0]),
			COI:    ev,
		})
	}
	if f.cfg.MinKeywordScore > 0 && bestKeywordScore < f.cfg.MinKeywordScore {
		reasons = append(reasons, Reason{
			Kind: "keyword-score",
			Detail: fmt.Sprintf("best keyword score %.2f below threshold %.2f",
				bestKeywordScore, f.cfg.MinKeywordScore),
		})
	}
	if v := f.cfg.Expertise.Violations(reviewer); len(v) > 0 {
		reasons = append(reasons, Reason{
			Kind:   "expertise",
			Detail: strings.Join(v, "; "),
		})
	}
	if f.pcSet != nil && !f.pcSet[normName(reviewer.Name)] {
		reasons = append(reasons, Reason{
			Kind:   "not-pc-member",
			Detail: "not on the programme committee",
		})
	}
	for i, blocked := range f.blocked {
		if blocked.Matches(reviewer.Name) {
			reasons = append(reasons, Reason{
				Kind:   "blocked",
				Detail: "on the editor's blocked-reviewer list (" + f.cfg.BlockedReviewers[i] + ")",
			})
			break
		}
	}
	return Decision{Kept: len(reasons) == 0, Reasons: reasons}
}

func normName(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), " ")
}
