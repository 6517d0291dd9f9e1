package profile

import (
	"math/rand"
	"strings"
	"testing"
)

// oracleNormalizeTitle is NormalizeTitle as it was before it became a
// wrapper over AppendNormalizedTitle, kept verbatim.
func oracleNormalizeTitle(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '\t':
			b.WriteByte(' ')
		}
	}
	return strings.Join(strings.Fields(b.String()), " ")
}

// titlePieces cover case, punctuation, tabs, the dotted capital I and
// Kelvin sign (which lower-case to ASCII), other non-ASCII letters,
// dropped symbols and invalid UTF-8.
var titlePieces = []string{
	"On", "Graphs", "graphs", "GRAPHS", "for", "Streams!", "RDF", "(v2)",
	"MixedCASE-2018", "x*y", "İndex", "Kernel", "Ångström", "naïve",
	"Σύστημα", "\xff", "a\xffb", "\t", "  ", "—", "3D", "",
}

func randomTitle(rng *rand.Rand) string {
	n := rng.Intn(6)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(titlePieces[rng.Intn(len(titlePieces))])
		if rng.Intn(4) > 0 {
			b.WriteString([]string{" ", "\t", "  ", ",", "-"}[rng.Intn(5)])
		}
	}
	return b.String()
}

// TestNormalizeTitleMatchesOracle: the append form, into an empty or a
// non-empty buffer, agrees with the oracle over randomized titles.
func TestNormalizeTitleMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		title := randomTitle(rng)
		want := oracleNormalizeTitle(title)
		if got := NormalizeTitle(title); got != want {
			t.Fatalf("NormalizeTitle(%q) = %q, oracle %q", title, got, want)
		}
		if got := string(AppendNormalizedTitle([]byte("k|"), title)); got != "k|"+want {
			t.Fatalf("AppendNormalizedTitle(\"k|\", %q) = %q, oracle %q", title, got, "k|"+want)
		}
	}
}
