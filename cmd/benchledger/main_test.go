package main

import (
	"strings"
	"testing"
	"time"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: minaret
BenchmarkBatchPipeline/batch-cold-8         	       1	 93040732 ns/op	 5166898 B/op	   55612 allocs/op
BenchmarkBatchPipeline/batch-cold-8         	       1	 83040732 ns/op	 5266898 B/op	   55610 allocs/op
BenchmarkBatchPipeline/batch-warm-8         	       1	  1204000 ns/op	  166898 B/op	    1612 allocs/op
BenchmarkRetrieveCold/live-8                	       1	 40000000 ns/op
BenchmarkEncodeBatchReply-8                 	      20	  1741687 ns/op	       193.6 KB/reply	  240634 B/op	    3180 allocs/op
--- some unrelated line ---
PASS
ok  	minaret	12.3s
`

func TestRecordParsesAndKeepsMin(t *testing.T) {
	led, err := record(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(led.Benchmarks), led.Benchmarks)
	}
	cold, ok := led.Benchmarks["BenchmarkBatchPipeline/batch-cold"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", led.Benchmarks)
	}
	// Two runs: ledger keeps the minimum per metric and counts both.
	if cold.NsOp != 83040732 || cold.BytesOp != 5166898 || cold.AllocsOp != 55610 || cold.Runs != 2 {
		t.Fatalf("min-over-runs wrong: %+v", cold)
	}
	// -benchmem absent: timing recorded, memory zero.
	live := led.Benchmarks["BenchmarkRetrieveCold/live"]
	if live.NsOp != 40000000 || live.BytesOp != 0 || live.AllocsOp != 0 {
		t.Fatalf("plain -bench line mis-parsed: %+v", live)
	}
	// A metric the benchmark reports itself sits between ns/op and the
	// memory figures, and must not hide them.
	enc := led.Benchmarks["BenchmarkEncodeBatchReply"]
	if enc.NsOp != 1741687 || enc.BytesOp != 240634 || enc.AllocsOp != 3180 {
		t.Fatalf("row with a custom metric mis-parsed: %+v", enc)
	}
	if led.Schema != 1 || led.GoVersion == "" {
		t.Fatalf("ledger header incomplete: %+v", led)
	}
}

func TestRecordEmptyInput(t *testing.T) {
	led, err := record(strings.NewReader("PASS\nok minaret 0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(led.Benchmarks) != 0 {
		t.Fatalf("phantom benchmarks: %v", led.Benchmarks)
	}
}

func mkLedger(entries map[string]Entry) *Ledger {
	return &Ledger{Schema: 1, GoVersion: "go1.21", RecordedAt: time.Unix(0, 0), Benchmarks: entries}
}

func TestDiffPassesWithinThreshold(t *testing.T) {
	old := mkLedger(map[string]Entry{
		"BenchmarkA": {NsOp: 1000, AllocsOp: 100, Runs: 3},
		"BenchmarkB": {NsOp: 500, AllocsOp: 10, Runs: 3},
	})
	cur := mkLedger(map[string]Entry{
		"BenchmarkA": {NsOp: 1150, AllocsOp: 119, Runs: 3}, // +15%, +19%: inside the gate
		"BenchmarkB": {NsOp: 400, AllocsOp: 10, Runs: 3},   // faster
	})
	report, regressed := diff(old, cur, 0.20)
	if regressed {
		t.Fatalf("within-threshold diff flagged a regression:\n%s", report)
	}
	if !strings.Contains(report, "benchledger: ok") {
		t.Fatalf("report missing verdict:\n%s", report)
	}
}

func TestDiffFailsOnNsOpRegression(t *testing.T) {
	old := mkLedger(map[string]Entry{"BenchmarkA": {NsOp: 1000, AllocsOp: 100, Runs: 1}})
	cur := mkLedger(map[string]Entry{"BenchmarkA": {NsOp: 1201, AllocsOp: 100, Runs: 1}})
	report, regressed := diff(old, cur, 0.20)
	if !regressed {
		t.Fatalf("+20.1%% ns/op not flagged:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSION ns/op") {
		t.Fatalf("report does not name the regressed metric:\n%s", report)
	}
}

func TestDiffFailsOnAllocRegression(t *testing.T) {
	old := mkLedger(map[string]Entry{"BenchmarkA": {NsOp: 1000, AllocsOp: 100, Runs: 1}})
	cur := mkLedger(map[string]Entry{"BenchmarkA": {NsOp: 1000, AllocsOp: 121, Runs: 1}})
	report, regressed := diff(old, cur, 0.20)
	if !regressed {
		t.Fatalf("+21%% allocs/op not flagged:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSION allocs/op 100 -> 121") {
		t.Fatalf("report does not show the alloc jump:\n%s", report)
	}
}

func TestDiffNewAndRemovedBenchmarksNeverFail(t *testing.T) {
	old := mkLedger(map[string]Entry{"BenchmarkGone": {NsOp: 10, Runs: 1}})
	cur := mkLedger(map[string]Entry{"BenchmarkNew": {NsOp: 1e9, AllocsOp: 1e6, Runs: 1}})
	report, regressed := diff(old, cur, 0.20)
	if regressed {
		t.Fatalf("adding/retiring benchmarks must not fail the gate:\n%s", report)
	}
	if !strings.Contains(report, "(new)") || !strings.Contains(report, "(removed)") {
		t.Fatalf("report does not mention churn:\n%s", report)
	}
}

func TestDiffZeroBaselineNeverRegresses(t *testing.T) {
	// A benchmark recorded without -benchmem has allocs 0; the next
	// ledger recording real counts must not trip the proportional gate.
	old := mkLedger(map[string]Entry{"BenchmarkA": {NsOp: 1000, AllocsOp: 0, Runs: 1}})
	cur := mkLedger(map[string]Entry{"BenchmarkA": {NsOp: 1000, AllocsOp: 999, Runs: 1}})
	if report, regressed := diff(old, cur, 0.20); regressed {
		t.Fatalf("zero baseline flagged:\n%s", report)
	}
}
