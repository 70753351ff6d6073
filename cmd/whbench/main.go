// Command whbench regenerates every table and figure of the Wormhole
// paper's evaluation (§4) at a configurable scale.
//
// Usage:
//
//	whbench -exp all                      # everything, laptop scale
//	whbench -exp fig10 -keys 1000000      # one figure, bigger keysets
//	whbench -exp fig09,fig17 -threads 16 -duration 2s
//	whbench -exp shard-sweep -shards 8    # sharded-store scaling sweep
//	whbench -list                         # show experiment ids
//
// Absolute numbers depend on the host; the paper's shapes (ordering of
// indexes, rough ratios, crossover points) are the reproduction target.
// See README.md for reproduction notes and docs/ARCHITECTURE.md for the
// paper-to-code map behind each experiment. End-to-end performance of the
// store (reads, scans, commits, recovery, replication) is measured by the
// separate benchmark/ module, not by whbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/repro/wormhole/internal/bench"
)

// run is the machine-readable document -json writes: one whbench
// invocation's environment plus every recorded benchmark cell. The
// historical docs/history/BENCH_*.json files hold runs in this shape.
type run struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Keys       int            `json:"keys"`
	Threads    int            `json:"threads"`
	DurationMS int64          `json:"duration_ms"`
	Seed       int64          `json:"seed"`
	Timestamp  string         `json:"timestamp"`
	Results    []bench.Result `json:"results"`
}

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		keys     = flag.Int("keys", 200_000, "base keys per keyset")
		threads  = flag.Int("threads", 0, "worker threads (default: min(GOMAXPROCS, 16))")
		duration = flag.Duration("duration", time.Second, "measurement window per cell")
		seed     = flag.Int64("seed", 42, "workload seed")
		batch    = flag.Int("batch", 800, "netkv request batch size (fig12)")
		shards   = flag.Int("shards", 0, "extra shard count for shard-sweep's 2/4/8 ladder")
		dir      = flag.String("dir", "", "failover experiment: persist stores under this directory (default: a temp dir, removed afterwards)")
		jsonOut  = flag.String("json", "", "write machine-readable results (failover) to this file")
		list     = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Desc)
		}
		return
	}
	cfg := &bench.Config{
		Keys: *keys, Threads: *threads, Duration: *duration,
		Seed: *seed, Batch: *batch, Shards: *shards,
		Dir: *dir, Out: os.Stdout,
	}
	cfg.Normalize()
	var recorded []bench.Result
	if *jsonOut != "" {
		cfg.Record = func(r bench.Result) { recorded = append(recorded, r) }
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}
	ran := 0
	for _, e := range bench.Experiments() {
		if !want["all"] && !want[e.ID] {
			continue
		}
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Desc)
		start := time.Now()
		e.Run(cfg)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "whbench: no experiment matches %q; use -list\n", *exp)
		os.Exit(2)
	}
	if *jsonOut != "" {
		doc := run{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Keys:       cfg.Keys,
			Threads:    cfg.Threads,
			DurationMS: cfg.Duration.Milliseconds(),
			Seed:       cfg.Seed,
			Timestamp:  time.Now().UTC().Format(time.RFC3339),
			Results:    recorded,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "whbench: encoding -json output: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "whbench: writing %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d results to %s\n", len(recorded), *jsonOut)
	}
}
