package main

import (
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"flicker/internal/netsim"
)

// A run repeats its repetition at least minReps times, so set-up time is a
// median of several set-ups, and never measures longer than maxMeasure, so
// the whole process stays well inside its time limit.
const (
	minReps    = 3
	maxMeasure = 75 * time.Second
)

// repStats is one repetition's measurement. Every repetition of a workload
// builds a fresh instance and runs the same fixed operation sequence, so
// its counts and simulated times repeat exactly for a seed.
type repStats struct {
	setup    time.Duration
	wall     time.Duration
	ops      int
	failed   int
	cpu      time.Duration // process user+sys over the timed ops
	mallocs  uint64
	heapBase uint64 // live heap after a forced GC just before the timed ops
	heapLive uint64 // live heap after a forced GC just after them
	numGC    uint32
	gcCPU    float64 // runtime GC CPU seconds over the timed ops
	availCPU float64 // GOMAXPROCS x wall seconds over the timed ops
	sim      time.Duration
	seq      uint64 // fingerprint of the generated op sequence

	// Filled on traced repetitions only.
	counters counters
	net      netsim.LinkStats
	extras   map[string]float64
}

// summary is every repetition of one measure call.
type summary struct {
	reps      []repStats
	latencies []time.Duration
	attempted int
	failed    int
	rec       *recorder
}

// measure runs repetitions of w until budget has passed (and, with
// needP99, until the latency sample is large enough for p99), then returns
// them. A set-up or warm-up failure aborts the run: the benchmark cannot
// measure a system it cannot build.
func measure(w *workload, seed uint64, budget time.Duration, needP99 bool, rec *recorder) (*summary, error) {
	s := &summary{rec: rec}
	start := time.Now()
	for {
		r, lats, err := runRep(w, seed, rec)
		if err != nil {
			return nil, err
		}
		s.reps = append(s.reps, r)
		s.latencies = append(s.latencies, lats...)
		s.attempted += r.ops
		s.failed += r.failed
		el := time.Since(start)
		enoughSamples := !needP99 || len(s.latencies) >= minP99Samples
		if (len(s.reps) >= minReps && el >= budget && enoughSamples) || el >= maxMeasure {
			break
		}
	}
	return s, nil
}

// runRep builds one instance, warms it up, and times its fixed op count.
func runRep(w *workload, seed uint64, rec *recorder) (repStats, []time.Duration, error) {
	var r repStats
	t0 := time.Now()
	inst, err := w.build(seed, rec)
	if err != nil {
		return r, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	if _, failed, err := drive(inst, w.clients, w.warmup, nil); failed > 0 {
		return r, nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	r.setup = time.Since(t0)

	var obs []*platObserver
	if rec != nil {
		obs = rec.attach(inst.platforms())
		r.counters = snapshotCounters(inst.registries())
		r.net = inst.net()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapBase = ms.HeapAlloc
	mallocs0, gc0 := ms.Mallocs, ms.NumGC
	gcCPU0, avail0 := readCPUClasses()
	sim0 := inst.simNow()
	cpu0 := processCPU()
	if rec != nil {
		rec.active.Store(true)
	}
	wall0 := time.Now()

	lats, failed, firstErr := drive(inst, w.clients, w.ops, rec)

	r.wall = time.Since(wall0)
	if rec != nil {
		rec.active.Store(false)
	}
	r.cpu = processCPU() - cpu0
	r.sim = inst.simNow() - sim0
	gcCPU1, avail1 := readCPUClasses()
	r.gcCPU, r.availCPU = gcCPU1-gcCPU0, avail1-avail0
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - mallocs0
	r.numGC = ms.NumGC - gc0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heapLive = ms.HeapAlloc
	r.ops = len(lats)
	r.failed = failed
	r.seq = inst.seqDigest()
	if firstErr != nil {
		fmt.Printf("  %s: %d failed ops, first: %v\n", w.name, failed, firstErr)
	}
	if rec != nil {
		rec.detach(inst.platforms(), obs)
		rec.fold()
		r.counters = snapshotCounters(inst.registries()).minus(r.counters)
		n := inst.net()
		r.net = netsim.LinkStats{
			RoundTrips:    n.RoundTrips - r.net.RoundTrips,
			BytesSent:     n.BytesSent - r.net.BytesSent,
			BytesReceived: n.BytesReceived - r.net.BytesReceived,
			WireTime:      n.WireTime - r.net.WireTime,
		}
		r.extras = inst.extras()
	}
	return r, lats, nil
}

// drive runs n ops on each of clients closed-loop client goroutines (the
// caller's goroutine when there is one client) and returns every op's
// latency, client-major.
func drive(inst instance, clients, n int, rec *recorder) ([]time.Duration, int, error) {
	lats := make([]time.Duration, clients*n)
	failed := make([]int, clients)
	errs := make([]error, clients)
	one := func(c int) {
		for i := 0; i < n; i++ {
			start, lat, err := inst.op(c)
			lats[c*n+i] = lat
			if err != nil {
				failed[c]++
				if errs[c] == nil {
					errs[c] = err
				}
			}
			rec.root(c, start, lat)
		}
	}
	if clients == 1 {
		one(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				one(c)
			}(c)
		}
		wg.Wait()
	}
	total := 0
	var first error
	for c := range failed {
		total += failed[c]
		if first == nil {
			first = errs[c]
		}
	}
	return lats, total, first
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var cpuClassSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readCPUClasses returns the runtime's cumulative GC CPU estimate and the
// CPU time available to the process (GOMAXPROCS x wall time).
func readCPUClasses() (gc, total float64) {
	rtmetrics.Read(cpuClassSamples)
	return cpuClassSamples[0].Value.Float64(), cpuClassSamples[1].Value.Float64()
}

// minP99Samples is the smallest sample with ten values beyond its p99. It
// is also the block size of the latency percentiles: each block of this
// many consecutive ops gets its own p50, p90 and p99, and a run reports the
// median over its blocks, so a burst of interference from outside the
// process moves a few blocks rather than the run's tail.
const minP99Samples = 1000

// blockPercentile is the median over blocks of minP99Samples consecutive
// latencies (the last block takes the remainder) of each block's
// q-quantile.
func blockPercentile(lats []time.Duration, q float64) time.Duration {
	var per []float64
	for start := 0; start < len(lats); {
		end := start + minP99Samples
		if len(lats)-end < minP99Samples {
			end = len(lats)
		}
		block := append([]time.Duration(nil), lats[start:end]...)
		sort.Slice(block, func(i, j int) bool { return block[i] < block[j] })
		per = append(per, float64(percentile(block, q)))
		start = end
	}
	return time.Duration(median(per))
}

// percentile returns the nearest-rank q-quantile of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// repMedian is the median over repetitions of f.
func (s *summary) repMedian(f func(r *repStats) float64) float64 {
	xs := make([]float64, len(s.reps))
	for i := range s.reps {
		xs[i] = f(&s.reps[i])
	}
	return median(xs)
}

func (s *summary) errorRate() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// blocks is how many latency blocks the run's percentiles are medians of.
func (s *summary) blocks() int {
	return max(len(s.latencies)/minP99Samples, 1)
}

// beyondP99 counts the samples above the p99 rank in the smallest block.
func (s *summary) beyondP99() int {
	n := len(s.latencies)
	if n >= minP99Samples {
		n = minP99Samples
	}
	return n - int(math.Ceil(0.99*float64(n)))
}

func (s *summary) throughput() float64 {
	return s.repMedian(func(r *repStats) float64 { return float64(r.ops) / r.wall.Seconds() })
}

// endToEnd is the untraced metric set every workload reports. The tail
// percentiles are printed beside it (see printEndToEnd), not reported.
func (s *summary) endToEnd() map[string]metric {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return map[string]metric{
		"setup_s":          {s.repMedian(func(r *repStats) float64 { return r.setup.Seconds() }), "s"},
		"throughput_ops_s": {s.throughput(), "1/s"},
		"latency_p50_us":   {us(blockPercentile(s.latencies, 0.50)), "us"},
		"cpu_us_per_op": {s.repMedian(func(r *repStats) float64 {
			return us(r.cpu) / float64(r.ops)
		}), "us"},
		"allocs_per_op": {s.repMedian(func(r *repStats) float64 {
			return float64(r.mallocs) / float64(r.ops)
		}), "count"},
		"heap_live_mb": {s.repMedian(func(r *repStats) float64 {
			return float64(r.heapLive) / (1 << 20)
		}), "MB"},
		"sim_us_per_op": {s.repMedian(func(r *repStats) float64 {
			return us(r.sim) / float64(r.ops)
		}), "us"},
	}
}
