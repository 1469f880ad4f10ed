// Command perfbench is the repository's end-to-end benchmark. It drives one
// named workload through the public APIs (the flicker facade, the session
// pool, the fabric controller and the paper's applications), checks every
// output it receives, and prints the end-to-end metrics on two clocks: host
// wall/CPU time, which is what the simulator costs to run, and simulated
// time, which is the paper's latency model.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload sessions_mixed --seed 1 --seconds 25 --trace 0
//
// A run repeats a fixed-size repetition (fresh set-up, fixed warm-up, fixed
// operation count) until --seconds have passed and reports medians over the
// repetitions, so heap growth, GC work and scrape cost never depend on how
// fast the host is. With --trace 1 the run spends half its time untraced and
// half traced, and reports the per-layer metrics instead: the benchmark's own
// span recorder times the calls into each layer from outside, and registry
// snapshot deltas give the per-layer counts.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed for the workload's generated inputs")
	seconds := fs.Float64("seconds", 25, "how long the run measures")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	st := stampNow(*seed)
	if w.clients > st.NumCPU {
		return fmt.Errorf("workload %s runs %d client goroutines but the machine has %d CPUs; refusing a client count above nproc",
			w.name, w.clients, st.NumCPU)
	}
	fmt.Printf("perfbench %s seed=%d num_cpu=%d gomaxprocs=%d go=%s degraded_parallelism=%v clients=%d\n",
		w.name, st.Seed, st.NumCPU, st.GOMAXPROCS, st.GoVersion, st.Degraded, w.clients)

	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *traced == 0 {
		s, err := measure(w, *seed, budget, true, nil)
		if err != nil {
			return err
		}
		printEndToEnd(w, s)
		res = result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: s.endToEnd()}
	} else {
		plain, err := measure(w, *seed, budget/2, false, nil)
		if err != nil {
			return err
		}
		rec := newRecorder()
		tr, err := measure(w, *seed, budget/2, false, rec)
		if err != nil {
			return err
		}
		layers, invariantErr := tr.perLayer(plain)
		printEndToEnd(w, plain)
		printLayers(w, layers)
		res = result{
			Correct:   plain.failed == 0 && tr.failed == 0 && invariantErr == nil,
			Attempted: plain.attempted + tr.attempted,
			Failed:    plain.failed + tr.failed,
			Metrics:   layers,
		}
		if invariantErr != nil {
			fmt.Println("invariant violated:", invariantErr)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// stamp identifies the machine and run a measurement came from.
type stamp struct {
	Seed       uint64
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	// Degraded marks a single-CPU run: its numbers say nothing about
	// scaling and client goroutines share the one CPU with the pool and
	// fabric workers.
	Degraded bool
}

func stampNow(seed uint64) stamp {
	n := runtime.NumCPU()
	return stamp{
		Seed:       seed,
		NumCPU:     n,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Degraded:   n == 1,
	}
}

// printEndToEnd writes the human-readable end-to-end table.
func printEndToEnd(w *workload, s *summary) {
	fmt.Printf("end-to-end (%s, untraced): %d repetitions, %d ops, %d failed, error_rate=%.6f\n",
		w.name, len(s.reps), s.attempted, s.failed, s.errorRate())
	fmt.Printf("  latency samples=%d in %d blocks, beyond p99 per block>=%d\n", len(s.latencies), s.blocks(), s.beyondP99())
	// The tail is printed, not reported. On a shared host a millisecond of
	// preemption lands on more than 1% of ops in some runs and not in
	// others, so between runs of the same code p99 moved by several times
	// what p50 did (fabric_batch most: its two clients and the fabric's
	// goroutines keep both CPUs of a two-CPU host busy). p90 is no steadier
	// on paper_apps, whose rounds range over a CA database that grows
	// between key rotations.
	us := func(q float64) float64 { return float64(blockPercentile(s.latencies, q)) / float64(time.Microsecond) }
	fmt.Printf("  latency p90 (printed only) %.4f us\n", us(0.90))
	if s.beyondP99() < 10 {
		fmt.Println("  p99 has fewer than ten samples beyond it and is not a p99")
	} else {
		fmt.Printf("  latency p99 (printed only) %.4f us\n", us(0.99))
	}
	fmt.Print("  per repetition (set-up s, ops/s):")
	for _, r := range s.reps {
		fmt.Printf(" %.3f/%.0f", r.setup.Seconds(), float64(r.ops)/r.wall.Seconds())
	}
	fmt.Println()
	m := s.endToEnd()
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-20s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// printLayers writes the human-readable per-layer table.
func printLayers(w *workload, m map[string]metric) {
	fmt.Printf("per-layer (%s, traced):\n", w.name)
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-36s %16.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("  trace.unattributed_pct=%.3f trace.overhead_pct=%.3f\n",
		m["trace.unattributed_pct"].Value, m["trace.overhead_pct"].Value)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
