// Command perfbench is the repository's layered benchmark. It drives
// the extractor only through its public packages on three workloads —
// two one-shot replays and one service run over a unix socket — and
// prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload replay-campus-npod --seed 42 --seconds 10 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it makes the traced run instead: spans around
// every call into a layer's public entry points, the per-layer
// metrics derived from them, and an "unattributed" remainder that
// makes the layers add up to the traced end-to-end ns/pkt. Every run
// checks the emitted vectors against the sequential engine. See
// README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"superfe/internal/harness"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// singleEngineCheck compares one sequential engine's output with the
// sharded reference the output check uses. It is printed as a JSON
// line of its own, {"single_engine_check": {...}}, just before the
// result line, whose keys are fixed. With one worker the reference is
// the single engine and nothing is compared (attempted 0). With more,
// the two differ when the shards' FG tables overwrite differently
// (README.md, known cost 3), so failed is 1 there and the run stays
// correct: the gate is the exact per-shard check.
type singleEngineCheck struct {
	Workers             int    `json:"workers"`
	Attempted           int    `json:"attempted"`
	Failed              int    `json:"failed"`
	Single              string `json:"single"`
	Sharded             string `json:"sharded"`
	FGOverwritesSingle  uint64 `json:"fg_overwrites_single"`
	FGOverwritesSharded uint64 `json:"fg_overwrites_sharded"`
}

func newSingleEngineCheck(in *inputs) singleEngineCheck {
	c := singleEngineCheck{
		Workers:             in.w.workers,
		Single:              in.single.String(),
		Sharded:             in.ref.String(),
		FGOverwritesSingle:  in.fgSingle,
		FGOverwritesSharded: in.fgSharded,
	}
	if in.w.workers > 1 {
		c.Attempted = 1
		if in.single != in.ref {
			c.Failed = 1
		}
	}
	return c
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", harness.Seed, "seed of the generated trace")
	seconds := fs.Int("seconds", 10, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	budget := time.Duration(*seconds) * time.Second

	in, err := prepare(w, *seed, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var res result
	if *traced == 1 {
		res, err = tracedRun(in, budget, stdout)
	} else {
		res, err = endToEnd(in, budget, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, v := range []any{map[string]singleEngineCheck{"single_engine_check": newSingleEngineCheck(in)}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}
