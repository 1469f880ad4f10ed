package main

// The traced run's instrument. Spans are recorded by this package, around
// its own calls into each layer and from core.Observer callbacks on every
// platform; it does not use internal/trace, so a change to the program's
// tracer cannot change what the benchmark measures. Spans live in memory,
// are folded into per-layer totals after each repetition, and the table is
// written when the run ends.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flicker"
	"flicker/internal/simtime"
)

// spanKind names the layer a span times.
type spanKind uint8

const (
	spanRoot     spanKind = iota // one op, as the client timed it
	spanPool                     // Pool.Run
	spanFabric                   // Controller.Run
	spanRootkit                  // rootkit Admin.Query
	spanSSH                      // SSH client Encrypt + server Login
	spanCASign                   // CA SignBatch + Validate
	spanCARotate                 // CA Authority.Init when the database is full
	spanDistcomp                 // distcomp unit, NextUnit to Submit
)

// span is one timed interval. Layer spans carry the client that made the
// call; the op a span belongs to is the root span of that client that
// contains it. Session spans come from observers and belong to every root
// span that contains them (a batched session serves several ops).
type span struct {
	kind       spanKind
	client     int
	start, end int64 // ns since the recorder's epoch
	sim        time.Duration
}

// phases are the session pipeline's phases, in Figure 2 order.
var phases = []string{"accept", "init-slb", "suspend-os", "skinit", "pal-exec", "cleanup", "extend-pcr", "resume-os"}

// phaseOther collects time in phases outside the classic list, such as a
// batched session's request spans, which nest inside pal-exec.
var phaseOther = len(phases)

func phaseIndex(name string) int {
	for i, p := range phases {
		if p == name {
			return i
		}
	}
	return phaseOther
}

// session is one observed session: its wall interval and per-phase wall
// and simulated time.
type session struct {
	start, end int64
	phaseWall  [9]int64
	phaseSim   [9]time.Duration
}

type recorder struct {
	epoch  time.Time
	active atomic.Bool

	mu       sync.Mutex
	spans    []span
	sessions []session

	// Totals over every repetition folded so far; fold empties the span
	// buffers after each repetition so a long run holds one repetition's
	// spans at a time.
	times     opTimes
	nSessions int
	phaseWall [9]int64
	phaseSim  [9]time.Duration
}

func newRecorder() *recorder {
	return &recorder{
		epoch: time.Now(),
		times: opTimes{
			layerSelf:  map[spanKind]int64{},
			layerTotal: map[spanKind]int64{},
			layerSim:   map[spanKind]time.Duration{},
			layerCount: map[spanKind]int{},
		},
	}
}

func (r *recorder) stamp(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// root records one op's span. A nil or inactive recorder ignores it.
func (r *recorder) root(c int, start time.Time, lat time.Duration) {
	r.layer(c, spanRoot, start, lat, 0)
}

// layer records one call into a layer made by client c.
func (r *recorder) layer(c int, kind spanKind, start time.Time, lat time.Duration, sim time.Duration) {
	if r == nil || !r.active.Load() {
		return
	}
	s := r.stamp(start)
	r.mu.Lock()
	r.spans = append(r.spans, span{kind: kind, client: c, start: s, end: s + int64(lat), sim: sim})
	r.mu.Unlock()
}

func (r *recorder) addSession(s session) {
	r.mu.Lock()
	r.sessions = append(r.sessions, s)
	r.mu.Unlock()
}

// attach registers one observer per platform.
func (r *recorder) attach(ps []*flicker.Platform) []*platObserver {
	obs := make([]*platObserver, len(ps))
	for i, p := range ps {
		obs[i] = &platObserver{rec: r}
		p.AddObserver(obs[i])
	}
	return obs
}

func (r *recorder) detach(ps []*flicker.Platform, obs []*platObserver) {
	for i, p := range ps {
		p.RemoveObserver(obs[i])
	}
}

// platObserver stamps one platform's sessions. A platform runs one
// session at a time, so one open session suffices; phases nest (a batched
// session's request spans open inside pal-exec), so they are a stack.
type platObserver struct {
	rec   *recorder
	cur   session
	open  [4]openPhase
	depth int
}

type openPhase struct {
	idx  int
	wall int64
	sim  time.Duration
}

func (o *platObserver) SessionStart(flicker.SessionMeta) {
	o.cur = session{start: o.rec.stamp(time.Now())}
	o.depth = 0
}

func (o *platObserver) PhaseStart(_ uint64, phase string, at time.Duration) {
	if o.depth < len(o.open) {
		o.open[o.depth] = openPhase{idx: phaseIndex(phase), wall: o.rec.stamp(time.Now()), sim: at}
	}
	o.depth++
}

func (o *platObserver) Charge(uint64, string, simtime.Charge) {}

func (o *platObserver) PhaseEnd(_ uint64, _ string, at time.Duration, _ error) {
	o.depth--
	if o.depth < 0 || o.depth >= len(o.open) {
		o.depth = max(o.depth, 0)
		return
	}
	ph := o.open[o.depth]
	o.cur.phaseWall[ph.idx] += o.rec.stamp(time.Now()) - ph.wall
	o.cur.phaseSim[ph.idx] += at - ph.sim
}

func (o *platObserver) SessionEnd(uint64, time.Duration, error) {
	o.cur.end = o.rec.stamp(time.Now())
	o.rec.addSession(o.cur)
}

// opTimes is what the spans say about the traced ops.
type opTimes struct {
	// layerSelf is, per layer span kind, the summed span time not covered
	// by sessions inside it, and layerCount the number of such spans.
	layerSelf  map[spanKind]int64
	layerTotal map[spanKind]int64
	layerSim   map[spanKind]time.Duration
	layerCount map[spanKind]int
	// rootTotal and unattributed sum the op spans and the part of them no
	// layer span covers.
	rootTotal    int64
	unattributed int64
}

// fold attributes the spans recorded since the last fold to their ops,
// adds them to the per-layer totals, and empties the buffers.
func (r *recorder) fold() {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.times
	sort.Slice(r.sessions, func(i, j int) bool { return r.sessions[i].start < r.sessions[j].start })
	sessStarts := make([]int64, len(r.sessions))
	for i, s := range r.sessions {
		sessStarts[i] = s.start
	}
	// inside sums the session time contained in [start, end].
	inside := func(start, end int64) int64 {
		var sum int64
		for i := sort.Search(len(sessStarts), func(i int) bool { return sessStarts[i] >= start }); i < len(r.sessions) && r.sessions[i].start <= end; i++ {
			if r.sessions[i].end <= end {
				sum += r.sessions[i].end - r.sessions[i].start
			}
		}
		return sum
	}
	byClient := map[int][]span{}
	for _, s := range r.spans {
		byClient[s.client] = append(byClient[s.client], s)
	}
	for _, spans := range byClient {
		// Roots sort before the layer spans they contain: by start, then
		// longest first, then roots first.
		sort.Slice(spans, func(i, j int) bool {
			a, b := spans[i], spans[j]
			if a.start != b.start {
				return a.start < b.start
			}
			if a.end != b.end {
				return a.end > b.end
			}
			return a.kind < b.kind
		})
		var rootEnd, covered, coveredTo int64
		var rootDur int64
		flush := func() {
			t.unattributed += rootDur - covered
		}
		open := false
		for _, s := range spans {
			if s.kind == spanRoot {
				if open {
					flush()
				}
				open = true
				rootDur = s.end - s.start
				t.rootTotal += rootDur
				rootEnd, covered, coveredTo = s.end, 0, s.start
				continue
			}
			if !open || s.end > rootEnd {
				continue
			}
			// Layer spans of one client never overlap, but clamp anyway
			// so coverage is a union.
			from := s.start
			if from < coveredTo {
				from = coveredTo
			}
			if s.end > from {
				covered += s.end - from
				coveredTo = s.end
			}
			dur := s.end - s.start
			t.layerTotal[s.kind] += dur
			t.layerSelf[s.kind] += dur - inside(s.start, s.end)
			t.layerSim[s.kind] += s.sim
			t.layerCount[s.kind]++
		}
		if open {
			flush()
		}
	}
	for _, s := range r.sessions {
		for i := range r.phaseWall {
			r.phaseWall[i] += s.phaseWall[i]
			r.phaseSim[i] += s.phaseSim[i]
		}
	}
	r.nSessions += len(r.sessions)
	r.spans, r.sessions = r.spans[:0], r.sessions[:0]
}
