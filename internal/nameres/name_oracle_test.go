package nameres

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// The oracle is the string-based name matcher that Name replaced, kept
// verbatim: NormalizeName, NamesCompatible and their helpers as they
// were before names were tokenized once into a Name.

func oracleNormalizeName(name string) []string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		case r == '.' || r == ',' || r == '-' || r == '\'':
			b.WriteByte(' ')
		case unicode.IsSpace(r):
			b.WriteByte(' ')
		}
	}
	return strings.Fields(b.String())
}

func oracleNamesCompatible(a, b string) bool {
	ta, tb := oracleNormalizeName(a), oracleNormalizeName(b)
	if len(ta) == 0 || len(tb) == 0 {
		return false
	}
	for _, xa := range oracleRotations(ta) {
		for _, xb := range oracleRotations(tb) {
			if oracleOrderedCompatible(xa, xb) {
				return true
			}
		}
	}
	return false
}

func oracleRotations(t []string) [][]string {
	if len(t) < 2 {
		return [][]string{t}
	}
	rot := make([]string, 0, len(t))
	rot = append(rot, t[1:]...)
	rot = append(rot, t[0])
	return [][]string{t, rot}
}

func oracleOrderedCompatible(ta, tb []string) bool {
	if ta[len(ta)-1] != tb[len(tb)-1] {
		return false
	}
	ga, gb := ta[:len(ta)-1], tb[:len(tb)-1]
	if len(ga) == 0 || len(gb) == 0 {
		return true
	}
	n := len(ga)
	if len(gb) < n {
		n = len(gb)
	}
	for i := 0; i < n; i++ {
		if !oracleTokenCompatible(ga[i], gb[i]) {
			return false
		}
	}
	return true
}

func oracleTokenCompatible(a, b string) bool {
	if a == b {
		return true
	}
	if len(a) == 1 && strings.HasPrefix(b, a) {
		return true
	}
	if len(b) == 1 && strings.HasPrefix(a, b) {
		return true
	}
	return false
}

// namePieces are the fragments randomName strings together: initials,
// index form, hyphens and apostrophes, dotless and dotted I, the Kelvin
// sign, other non-ASCII letters, dropped symbols and invalid UTF-8.
var namePieces = []string{
	"Lei", "lei", "L.", "L", "l", "Zhou", "ZHOU", "Zhou,", "Zhou, Lei",
	"Ana", "A.", "Costa", "Jean-Luc", "J.-L.", "O'Brien", "o'brien",
	"İlker", "ilker", "ılker", "I.", "Kim", "kim", "Kim", "K.",
	"José", "Jose", "Müller", "Mueller", "Ωmega", "ωmega", "Σίσυφος",
	"x*y", "xy", "3rd", "Ⅻ", "\xff", "\xffZhou", "a\tb", "  ", "-", ",", ".",
	"李", "李雷", "Đặng", "dang", "ǅemal", "ǆemal",
}

func randomName(rng *rand.Rand) string {
	n := rng.Intn(4)
	parts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, namePieces[rng.Intn(len(namePieces))])
	}
	seps := []string{" ", " ", ", ", "", "\t", "-"}
	return strings.Join(parts, seps[rng.Intn(len(seps))])
}

// TestNameMatchesOracle: over randomized names, the tokenized matcher
// agrees with the string-based oracle, NormalizeName yields the
// oracle's tokens, and Compatible agrees with Matches.
func TestNameMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	matched := 0
	const n = 200000
	for i := 0; i < n; i++ {
		a, b := randomName(rng), randomName(rng)
		checkNameOracle(t, a, b)
		if t.Failed() {
			return
		}
		if oracleNamesCompatible(a, b) {
			matched++
		}
	}
	// Both outcomes must be well represented for the agreement to mean
	// anything.
	if matched < n/50 || matched > n-n/50 {
		t.Fatalf("%d of %d random pairs compatible: generator too one-sided", matched, n)
	}
}

func checkNameOracle(t *testing.T, a, b string) {
	t.Helper()
	want := oracleNamesCompatible(a, b)
	if got := NamesCompatible(a, b); got != want {
		t.Errorf("NamesCompatible(%q, %q) = %v, oracle %v", a, b, got, want)
	}
	if got := ParseName(a).Matches(b); got != want {
		t.Errorf("ParseName(%q).Matches(%q) = %v, oracle %v", a, b, got, want)
	}
	if got := ParseName(a).Compatible(ParseName(b)); got != want {
		t.Errorf("ParseName(%q).Compatible(ParseName(%q)) = %v, oracle %v", a, b, got, want)
	}
	if got, want := NormalizeName(a), oracleNormalizeName(a); !reflect.DeepEqual(got, want) {
		t.Errorf("NormalizeName(%q) = %q, oracle %q", a, got, want)
	}
}

// FuzzNameMatch is the differential fuzz target for the tokenized
// matcher against the oracle.
func FuzzNameMatch(f *testing.F) {
	f.Add("Lei Zhou", "L. Zhou")
	f.Add("Zhou, Lei", "Lei Zhou")
	f.Add("Jean-Luc O'Brien", "J. O'Brien")
	f.Add("İlker Kaya", "ilker kaya")
	f.Add("x*y Zhou", "xy zhou")
	f.Add("\xffZhou", "Zhou")
	f.Fuzz(func(t *testing.T, a, b string) {
		checkNameOracle(t, a, b)
	})
}

// TestNameMatchAllocatesNothing: matching a tokenized name against a raw
// name of ordinary length costs no allocation, whichever way it goes.
func TestNameMatchAllocatesNothing(t *testing.T) {
	n := ParseName("Lei Zhou")
	other := ParseName("Zhou, L.")
	for _, raw := range []string{"L. Zhou", "Zhou, Lei", "Ana Costa", "José Müller-Lüdenscheidt"} {
		if allocs := testing.AllocsPerRun(100, func() { n.Matches(raw) }); allocs != 0 {
			t.Errorf("Matches(%q) allocates %.1f times per run", raw, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { n.Compatible(other) }); allocs != 0 {
		t.Errorf("Compatible allocates %.1f times per run", allocs)
	}
}
