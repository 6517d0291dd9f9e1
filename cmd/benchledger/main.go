// benchledger records `go test -bench` output as a versioned JSON
// ledger and diffs two ledgers against a regression threshold — the
// perf history that makes "did this PR slow the pipeline down?" a CI
// question instead of an archaeology project.
//
// Record mode (reads benchmark output from stdin):
//
//	make bench-ledger            # runs the smoke suite into BENCH_<n>.json
//	go test -bench=. -benchmem -count=3 | benchledger -out BENCH_7.json
//
// Compare mode (exits 1 when the new ledger regresses):
//
//	benchledger -compare BENCH_6.json BENCH_7.json
//	benchledger -compare -threshold 0.10 BENCH_6.json BENCH_7.json
//
// With -count=N the same benchmark appears N times; the ledger keeps
// the minimum per metric. The minimum is the right noise filter for a
// shared CI box: scheduling jitter only ever adds time, so the fastest
// observation is the closest to the code's true cost.
//
// Comparison covers ns/op and allocs/op. Bytes/op is recorded for
// context but not gated: it swings with Go-version internals more than
// with the code under test, while the allocation count is stable.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark's recorded cost (minimum over repeated runs).
type Entry struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
	// Runs counts how many times the benchmark appeared in the input
	// (-count=N), i.e. how many observations the minimum was taken over.
	Runs int `json:"runs"`
}

// Ledger is the file format: one entry per benchmark, keyed by the
// benchmark name with the GOMAXPROCS suffix stripped.
type Ledger struct {
	Schema     int              `json:"schema"`
	GoVersion  string           `json:"go_version"`
	RecordedAt time.Time        `json:"recorded_at"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchledger: ")
	var (
		out       = flag.String("out", "", "record mode: write the ledger read from stdin to this file")
		compare   = flag.Bool("compare", false, "compare mode: diff the two ledger files given as arguments")
		threshold = flag.Float64("threshold", 0.20, "compare mode: fractional regression that fails (0.20 = +20%)")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			log.Fatal("-compare needs exactly two ledger files: old new")
		}
		old, err := readLedger(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		cur, err := readLedger(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		report, regressed := diff(old, cur, *threshold)
		fmt.Print(report)
		if regressed {
			os.Exit(1)
		}
	case *out != "":
		led, err := record(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		if len(led.Benchmarks) == 0 {
			log.Fatal("no benchmark lines found on stdin (run go test with -bench and -benchmem)")
		}
		b, err := json.MarshalIndent(led, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("benchledger: %d benchmarks -> %s\n", len(led.Benchmarks), *out)
	default:
		log.Fatal("need -out FILE (record) or -compare OLD NEW")
	}
}

// benchLine matches go test's benchmark result rows, e.g.
//
//	BenchmarkRetrieveCold/live-8   1   83040732 ns/op   5166898 B/op   55612 allocs/op
//
// After the iteration count a row is value-unit pairs: ns/op, any
// metrics the benchmark reports itself (b.ReportMetric, printed before
// the memory figures), then B/op and allocs/op under -benchmem. Only
// ns/op is required, so plain -bench output still records timings.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// record parses benchmark output into a ledger, keeping the minimum per
// metric across repeated runs of the same benchmark.
func record(r io.Reader) (*Ledger, error) {
	led := &Ledger{
		Schema:     1,
		GoVersion:  runtime.Version(),
		RecordedAt: time.Now().UTC().Truncate(time.Second),
		Benchmarks: map[string]Entry{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		e := Entry{NsOp: -1, Runs: 1}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			var err error
			switch fields[i+1] {
			case "ns/op":
				e.NsOp, err = strconv.ParseFloat(fields[i], 64)
			case "B/op":
				e.BytesOp, err = strconv.ParseInt(fields[i], 10, 64)
			case "allocs/op":
				e.AllocsOp, err = strconv.ParseInt(fields[i], 10, 64)
			}
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", sc.Text(), err)
			}
		}
		if e.NsOp < 0 {
			continue
		}
		if prev, ok := led.Benchmarks[name]; ok {
			e.NsOp = min(e.NsOp, prev.NsOp)
			e.BytesOp = min(e.BytesOp, prev.BytesOp)
			e.AllocsOp = min(e.AllocsOp, prev.AllocsOp)
			e.Runs = prev.Runs + 1
		}
		led.Benchmarks[name] = e
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return led, nil
}

func readLedger(path string) (*Ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led Ledger
	if err := json.Unmarshal(b, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if led.Schema != 1 {
		return nil, fmt.Errorf("%s: unsupported ledger schema %d", path, led.Schema)
	}
	return &led, nil
}

// diff renders an old-vs-new comparison and reports whether any shared
// benchmark regressed past the threshold on ns/op or allocs/op.
// Benchmarks present on only one side are listed but never fail the
// gate — adding or retiring a benchmark is not a regression.
func diff(old, cur *Ledger, threshold float64) (string, bool) {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []byte
	regressed := false
	line := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...)...)
		out = append(out, '\n')
	}
	line("%-60s %14s %14s %8s", "benchmark", "old ns/op", "new ns/op", "Δ")
	for _, name := range names {
		n := cur.Benchmarks[name]
		o, ok := old.Benchmarks[name]
		if !ok {
			line("%-60s %14s %14.0f %8s", name, "(new)", n.NsOp, "")
			continue
		}
		mark := ""
		if bad(o.NsOp, n.NsOp, threshold) {
			mark = "  REGRESSION ns/op"
			regressed = true
		}
		if bad(float64(o.AllocsOp), float64(n.AllocsOp), threshold) {
			mark += fmt.Sprintf("  REGRESSION allocs/op %d -> %d", o.AllocsOp, n.AllocsOp)
			regressed = true
		}
		line("%-60s %14.0f %14.0f %+7.1f%%%s", name, o.NsOp, n.NsOp, pct(o.NsOp, n.NsOp), mark)
	}
	for name := range old.Benchmarks {
		if _, ok := cur.Benchmarks[name]; !ok {
			line("%-60s (removed)", name)
		}
	}
	if regressed {
		line("benchledger: FAIL — regression past +%.0f%% (ns/op or allocs/op)", threshold*100)
	} else {
		line("benchledger: ok (threshold +%.0f%%)", threshold*100)
	}
	return string(out), regressed
}

// bad reports whether new exceeds old by more than the threshold
// fraction. A zero old value can't regress proportionally (and allocs
// going 0 -> 1 should not fail a 20% gate designed for real counts).
func bad(old, new float64, threshold float64) bool {
	return old > 0 && new > old*(1+threshold)
}

func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}
