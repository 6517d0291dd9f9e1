// Command perfbench is MINARET's end-to-end benchmark. It builds the
// serving stack in one process the way cmd/minaret-server does — the
// HTTP API with its fetch client, shared caches and durable job queue —
// over a recorded copy of the simulated scholarly web, and drives the
// API over loopback with one closed-loop client.
//
//	go run . --workload editor-cold --seed 1 --seconds 10 --trace 0
//
// Workloads: editor-cold (one manuscript at a time through
// /api/recommend, caches dropped before each), venue-warm (a venue's
// submission queue through /v1/batch over warm caches) and venue-jobs
// (small overlapping jobs through /v1/jobs with a file-backed store).
// The last line of standard output is one JSON object with the
// correctness verdict, the operation counts and the metrics:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// See README.md for the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"minaret/perfbench/check"
)

// outDir holds each run's job store and the traced runs' span files,
// relative to the repository root the benchmark runs from.
const outDir = ".bench_build/out"

// processStart approximates the process's start for setup_s.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "editor-cold, venue-warm or venue-jobs")
	seed := fs.Int64("seed", 1, "seed of the manuscripts (the corpus is fixed)")
	seconds := fs.Int("seconds", 10, "length of the measured part of the run")
	traceOn := fs.Int("trace", 0, "1 times each layer and prints per-layer metrics; 0 prints end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload editor-cold|venue-warm|venue-jobs, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	traced := *traceOn == 1
	workDir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer removeAll(workDir)

	s, err := newStack(*seed, workDir, traced)
	if s != nil {
		defer s.close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	var chk check.Checker
	ref, recording, err := s.warm(&chk)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	setup := time.Since(processStart) - recording
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: venue %q, %d manuscripts, %d recorded pages, set-up %.2fs (recording and its check %.2fs more)\n",
		*name, *seed, s.venue, len(s.items), len(s.web.pages), setup.Seconds(), recording.Seconds())

	s.tracer.reset()
	before := s.snapshot()
	m := &meter{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	failures, err := wl(s, m, &chk, ref, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	after := s.snapshot()
	// Stopping the queue waits for its workers and its last save, so
	// the allocations count every save of the run and the heap is
	// measured at rest.
	failures = append(failures, s.stopQueue()...)
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	// Two collections: objects parked in a sync.Pool (encoding buffers
	// the size of a whole job store among them) survive the first.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	retained := ms1.HeapAlloc

	if err := chk.Err(); err != nil {
		failures = append(failures, err.Error())
	}
	failures = append(failures, s.backgroundFailures()...)
	if n := s.web.fallthroughs.Load(); n != 0 {
		failures = append(failures, fmt.Sprintf("%d source requests fell through the recorded web", n))
	}
	if *name == "venue-jobs" {
		failures = append(failures, s.reloadJobs(m)...)
	}

	res := result{Correct: len(failures) == 0, Attempted: m.ops, Failed: m.failed}
	if traced {
		res.Metrics = s.layerMetrics(m, before, after)
		agg, err := s.tracer.write(filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed)))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
			return 1
		}
		for _, n := range sortedKeys(agg) {
			a := agg[n]
			fmt.Fprintf(os.Stderr, "perfbench: span %-34s count %7d total %10.1f ms self %10.1f ms\n", n, a.Count, a.TotalMS, a.SelfMS)
		}
	} else {
		res.Metrics = endToEnd(m, setup, retained)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops, %d manuscripts, median latency %.1f ms, %.2f manuscripts/s; precision %.4f vs random baseline %.4f\n",
		m.ops, m.manuscripts, median(m.latMS), ratio(float64(m.manuscripts), m.wall.Seconds()), chk.Precision(), chk.Baseline())
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", f)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
