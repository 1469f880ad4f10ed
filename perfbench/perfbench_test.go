package main

import (
	"testing"
	"time"
)

// tinyRep runs one traced repetition of w with small op counts and
// returns it with the registry-count metrics it produced.
func tinyRep(t *testing.T, w *workload, warmup, ops int, seed uint64) (repStats, map[string]float64) {
	t.Helper()
	small := *w
	small.warmup, small.ops = warmup, ops
	r, _, err := runRep(&small, seed, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%s seed %d: %d of %d ops failed", w.name, seed, r.failed, r.ops)
	}
	counts := map[string]float64{}
	countMetrics(r.counters, r.ops, func(name string, v float64, _ string) { counts[name] = v })
	return r, counts
}

// TestDeterministic runs each workload twice with one seed and once with
// another. Two runs of one seed must generate the same op sequence, the
// same counts and the same simulated time; another seed must generate
// another sequence.
//
// On fabric_batch the two clients' requests reach the coalescer in an
// order that depends on goroutine timing, but each two-slot group fills by
// count (fabricBatchWait), so the same requests share each runBatch frame
// and the counts still repeat.
func TestDeterministic(t *testing.T) {
	sizes := map[string][2]int{ // warm-up and timed ops per client
		"sessions_mixed": {20, 300},
		"fabric_rpc":     {10, 200},
		"fabric_batch":   {10, 100},
		"paper_apps":     {1, caBatchesPerKey + 1}, // includes one CA key rotation
	}
	exact := []string{
		"core.sessions_per_op", "hw.measure_hit_ratio", "fabric.frames_per_op",
		"hw.skinit_per_op", "tpm.cmds_per_op.other",
	}
	for _, o := range tpmOrdinals {
		exact = append(exact, "tpm.cmds_per_op."+o)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			sz, ok := sizes[w.name]
			if !ok {
				t.Fatalf("no test size for workload %s", w.name)
			}
			a, countsA := tinyRep(t, w, sz[0], sz[1], 7)
			b, countsB := tinyRep(t, w, sz[0], sz[1], 7)
			other, _ := tinyRep(t, w, sz[0], sz[1], 8)
			if a.seq != b.seq {
				t.Errorf("seed 7 generated two different op sequences")
			}
			if a.seq == other.seq {
				t.Errorf("seeds 7 and 8 generated the same op sequence")
			}
			if countsA["core.sessions_per_op"] == 0 {
				t.Errorf("no sessions counted")
			}
			if a.sim != b.sim {
				t.Errorf("simulated time differs between runs of one seed: %v vs %v", a.sim, b.sim)
			}
			for _, k := range exact {
				if countsA[k] != countsB[k] {
					t.Errorf("%s differs between runs of one seed: %v vs %v", k, countsA[k], countsB[k])
				}
			}
		})
	}
}

// TestBlockPercentile pins the nearest-rank convention and the block
// median the latency metrics use.
func TestBlockPercentile(t *testing.T) {
	var lats []time.Duration
	for i := 1000; i >= 1; i-- {
		lats = append(lats, time.Duration(i))
	}
	if got := blockPercentile(lats, 0.99); got != 990 {
		t.Errorf("p99 of one block 1..1000 = %v, want 990", got)
	}
	// Two more blocks, one of them slow: the median block decides.
	for i := 1; i <= 1000; i++ {
		lats = append(lats, time.Duration(i))
	}
	for i := 1; i <= 1500; i++ {
		lats = append(lats, time.Duration(100*i))
	}
	if got := blockPercentile(lats, 0.99); got != 990 {
		t.Errorf("median block p99 = %v, want 990", got)
	}
	s := &summary{latencies: lats}
	if got := s.beyondP99(); got != 10 {
		t.Errorf("beyondP99 = %d, want 10", got)
	}
	if got := s.blocks(); got != 3 {
		t.Errorf("blocks = %d, want 3", got)
	}
}
