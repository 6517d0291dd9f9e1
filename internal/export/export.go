// Package export renders recommendation results into the formats an
// editorial workflow consumes: CSV for spreadsheets, JSON for tooling,
// and markdown for review notes. The demo shows results in a web UI
// (Figure 5); editors of real journals pull them into their systems.
package export

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"minaret/internal/core"
	"minaret/internal/ranking"
)

// componentOrder fixes CSV/markdown column order for score components.
var componentOrder = []string{
	ranking.CompTopicCoverage,
	ranking.CompImpact,
	ranking.CompRecency,
	ranking.CompReviewExperience,
	ranking.CompOutletFamiliarity,
	ranking.CompResponsiveness,
	ranking.CompReviewQuality,
}

// usedComponents returns, in canonical order, the components present in
// at least one recommendation.
func usedComponents(res *core.Result) []string {
	present := map[string]bool{}
	for _, rec := range res.Recommendations {
		for k := range rec.Breakdown.Components {
			present[k] = true
		}
	}
	var out []string
	for _, c := range componentOrder {
		if present[c] {
			out = append(out, c)
		}
	}
	// Any non-standard components (future extensions) go last, sorted.
	var extra []string
	for k := range present {
		found := false
		for _, c := range componentOrder {
			if c == k {
				found = true
			}
		}
		if !found {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// CSV writes the ranked reviewer table, one row per recommendation,
// with one column per active score component.
func CSV(w io.Writer, res *core.Result) error {
	cw := csv.NewWriter(w)
	comps := usedComponents(res)
	header := []string{"rank", "reviewer", "affiliation", "country", "total",
		"citations", "h_index", "reviews", "best_keyword_score", "sources"}
	header = append(header, comps...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, rec := range res.Recommendations {
		p := rec.Reviewer
		row := []string{
			strconv.Itoa(rec.Rank),
			p.Name,
			p.Affiliation,
			p.Country,
			fmt.Sprintf("%.4f", rec.Total),
			strconv.Itoa(p.Citations),
			strconv.Itoa(p.HIndex),
			strconv.Itoa(p.ReviewCount),
			fmt.Sprintf("%.4f", rec.BestKeywordScore),
			strings.Join(p.SourcesUsed, ";"),
		}
		for _, c := range comps {
			row = append(row, fmt.Sprintf("%.4f", rec.Breakdown.Components[c]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSON writes the result indented, its reviewers and authors encoded
// as profile summaries (see core.Recommendation).
func JSON(w io.Writer, res *core.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// Markdown writes an editor-facing report: manuscript summary,
// verification status, the ranked table, and the exclusion log.
func Markdown(w io.Writer, res *core.Result) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Reviewer recommendations — %s\n\n", orUntitled(res.Manuscript.Title))
	fmt.Fprintf(&b, "- **Keywords:** %s\n", strings.Join(res.Manuscript.Keywords, ", "))
	if res.Manuscript.TargetVenue != "" {
		fmt.Fprintf(&b, "- **Target venue:** %s\n", res.Manuscript.TargetVenue)
	}
	authors := make([]string, len(res.Manuscript.Authors))
	for i, a := range res.Manuscript.Authors {
		authors[i] = a.Name
		if a.Affiliation != "" {
			authors[i] += " (" + a.Affiliation + ")"
		}
	}
	fmt.Fprintf(&b, "- **Authors:** %s\n\n", strings.Join(authors, "; "))

	if n := unresolvedAuthors(res); n > 0 {
		fmt.Fprintf(&b, "> ⚠ %d author identit%s could not be auto-resolved; confirm before trusting COI checks.\n\n",
			n, plural(n, "y", "ies"))
	}

	comps := usedComponents(res)
	b.WriteString("| rank | reviewer | affiliation | total |")
	for _, c := range comps {
		b.WriteString(" " + shortName(c) + " |")
	}
	b.WriteString("\n|---|---|---|---|")
	for range comps {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, rec := range res.Recommendations {
		fmt.Fprintf(&b, "| %d | %s | %s | %.3f |", rec.Rank, rec.Reviewer.Name, rec.Reviewer.Affiliation, rec.Total)
		for _, c := range comps {
			fmt.Fprintf(&b, " %.3f |", rec.Breakdown.Components[c])
		}
		b.WriteString("\n")
	}

	if len(res.ExcludedCandidates) > 0 {
		fmt.Fprintf(&b, "\n## Excluded candidates (%d)\n\n", len(res.ExcludedCandidates))
		for _, ex := range res.ExcludedCandidates {
			kinds := make([]string, 0, len(ex.Reasons))
			for _, r := range ex.Reasons {
				kinds = append(kinds, r.Kind)
			}
			fmt.Fprintf(&b, "- %s — %s\n", ex.Name, strings.Join(kinds, ", "))
		}
	}
	if len(res.SourceErrors) > 0 {
		b.WriteString("\n## Source degradations\n\n")
		keys := make([]string, 0, len(res.SourceErrors))
		for k := range res.SourceErrors {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "- `%s`: %s\n", k, res.SourceErrors[k])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func unresolvedAuthors(res *core.Result) int {
	n := 0
	for _, vr := range res.AuthorVerification {
		if !vr.Resolved {
			n++
		}
	}
	return n
}

func shortName(comp string) string {
	switch comp {
	case ranking.CompTopicCoverage:
		return "topic"
	case ranking.CompImpact:
		return "impact"
	case ranking.CompRecency:
		return "recency"
	case ranking.CompReviewExperience:
		return "rev-exp"
	case ranking.CompOutletFamiliarity:
		return "outlet"
	case ranking.CompResponsiveness:
		return "resp"
	case ranking.CompReviewQuality:
		return "quality"
	default:
		return comp
	}
}

func orUntitled(s string) string {
	if strings.TrimSpace(s) == "" {
		return "(untitled manuscript)"
	}
	return s
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
