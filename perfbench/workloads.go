package main

import (
	"bytes"
	"crypto/sha1"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"flicker"
	"flicker/internal/apps/ca"
	"flicker/internal/apps/distcomp"
	"flicker/internal/apps/rootkit"
	"flicker/internal/apps/sshauth"
	"flicker/internal/netsim"
	"flicker/internal/palcrypto"
)

// workload is one named set of inputs with its client count and the fixed
// sizes of a repetition. Counts are fixed, never durations: retained heap
// and scrape cost grow with the number of sessions a system has run, so a
// repetition that ran "as many ops as fit" would measure a different
// system on a faster host.
type workload struct {
	name    string
	clients int
	warmup  int // ops per client before timing starts
	ops     int // timed ops per client in one repetition
	build   func(seed uint64, rec *recorder) (instance, error)
}

// instance is one built workload: the system under test plus its seeded
// clients. Client c's op sequence depends only on the seed and c.
type instance interface {
	// op runs client c's next operation, timing only the calls into the
	// system, and reports a failed or wrong result as an error.
	op(c int) (start time.Time, lat time.Duration, err error)
	// simNow sums every simulated clock the workload owns.
	simNow() time.Duration
	registries() []*flicker.MetricsRegistry
	// net sums the cumulative traffic of every simulated link and switch.
	net() netsim.LinkStats
	// platforms lists every platform that runs sessions, for observers.
	platforms() []*flicker.Platform
	// extras are workload-specific per-layer values of the repetition.
	extras() map[string]float64
	// seqDigest fingerprints the op sequence generated so far.
	seqDigest() uint64
	close()
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records why
// each was chosen. Every op of a workload is the same kind of op (on
// paper_apps, one round of all four applications), so the median latency
// never sits on a boundary between kinds of op.
var workloads = []*workload{
	{
		// The simulator hot path alone: phase engine, TPM dispatch, SKINIT
		// measure cache, palcrypto, pool handoff, metrics; no fabric.
		name:    "sessions_mixed",
		clients: 1,
		warmup:  500,
		ops:     12000,
		build:   buildSessionsMixed,
	},
	{
		// Controller dispatch, wire codec, netsim and host handler,
		// unbatched, around small sessions.
		name:    "fabric_rpc",
		clients: 1,
		warmup:  200,
		ops:     10000,
		build:   func(seed uint64, rec *recorder) (instance, error) { return buildFabric(seed, rec, 0, 4, 1) },
	},
	{
		// The only path through sched.Gather, runBatch frames, the window
		// and pool.RunBatch: two clients fill each two-slot group by count,
		// never by timer (see fabricBatchWait).
		name:    "fabric_batch",
		clients: 2,
		warmup:  200,
		ops:     6000,
		build:   func(seed uint64, rec *recorder) (instance, error) { return buildFabric(seed, rec, 2, 1, 2) },
	},
	{
		// The paper's four applications on Broadcom timings; bypasses pool
		// and fabric.
		name:    "paper_apps",
		clients: 1,
		warmup:  2,
		ops:     caBatchesPerKey * 3,
		build:   buildPaperApps,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

// splitmix is a small seeded generator for workload inputs (splitmix64).
type splitmix struct{ s uint64 }

func newSplitmix(seed uint64, stream string) splitmix {
	r := splitmix{s: seed}
	for _, b := range []byte(stream) {
		r.s = r.s*0x100000001b3 ^ uint64(b)
	}
	return r
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *splitmix) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < len(b); j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
}

// mixSeq folds one op's identifying values into a sequence fingerprint.
func mixSeq(h uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		h = (h ^ v) * 0x100000001b3
	}
	return h
}

// digestPAL is an echo-with-digest PAL: it returns SHA-1(input) || input,
// hashed with the PAL crypto library. The benchmark checks the digest with
// the standard library's SHA-1, an independent implementation. configLen
// pads the PAL's code, so PALs differ in SLB size and SKINIT cost.
func digestPAL(name string, configLen int) flicker.PAL {
	return &flicker.PALFunc{
		PALName: name,
		Binary:  flicker.DescriptorCode(name, "1.0", nil, make([]byte, configLen)),
		Fn: func(_ *flicker.Env, input []byte) ([]byte, error) {
			d := flicker.SHA1Sum(input)
			return append(d[:], input...), nil
		},
	}
}

// checkDigestEcho verifies a digestPAL output.
func checkDigestEcho(in, out []byte) error {
	if len(out) != sha1.Size+len(in) {
		return fmt.Errorf("output is %d bytes, want %d", len(out), sha1.Size+len(in))
	}
	want := sha1.Sum(in)
	if !bytes.Equal(out[:sha1.Size], want[:]) || !bytes.Equal(out[sha1.Size:], in) {
		return errors.New("output does not echo the input with its SHA-1")
	}
	return nil
}

// --- sessions_mixed ---------------------------------------------------------

const (
	mixedPALs     = 16
	mixedMinInput = 16
	mixedMaxInput = 2048
	// mixedPALStep is how much larger each PAL's code is than the last.
	mixedPALStep = 128
	// scrapeEvery is how many sessions pass between operator scrapes.
	scrapeEvery = 2000
	// pcrCheckEvery is how many sessions pass between PCR-17 checks.
	pcrCheckEvery = 64
)

type sessionsMixed struct {
	rec    *recorder
	pool   *flicker.Pool
	pals   []flicker.PAL
	images map[imageKey]*flicker.SLBImage
	rng    splitmix
	last   int
	in     []byte
	n      int
	seq    uint64

	scrapes     int
	scrapeFirst time.Duration
	scrapeLast  time.Duration
}

// imageKey names a verifier-side image patched for one SLB base.
type imageKey struct {
	pal  int
	base uint32
}

func buildSessionsMixed(seed uint64, rec *recorder) (instance, error) {
	pool, err := flicker.NewPool(flicker.PoolConfig{
		Shards:   1,
		Platform: flicker.Config{Seed: "perfbench-sessions"},
	})
	if err != nil {
		return nil, err
	}
	s := &sessionsMixed{
		rec:    rec,
		pool:   pool,
		images: make(map[imageKey]*flicker.SLBImage),
		rng:    newSplitmix(seed, "sessions_mixed"),
		in:     make([]byte, mixedMaxInput),
	}
	for i := 0; i < mixedPALs; i++ {
		s.pals = append(s.pals, digestPAL(fmt.Sprintf("echo-%02d", i), i*mixedPALStep))
	}
	s.last = s.rng.intn(mixedPALs)
	return s, nil
}

func (s *sessionsMixed) op(c int) (time.Time, time.Duration, error) {
	// The next PAL repeats the last one with probability 1/2 and is one of
	// the other fifteen otherwise, so about half the launches re-measure an
	// unchanged image.
	idx := s.last
	if s.rng.next()&1 == 1 {
		idx = (s.last + 1 + s.rng.intn(mixedPALs-1)) % mixedPALs
	}
	s.last = idx
	in := s.in[:mixedMinInput+s.rng.intn(mixedMaxInput-mixedMinInput+1)]
	s.rng.fill(in)
	s.seq = mixSeq(s.seq, uint64(idx), uint64(len(in)), uint64(in[0])|uint64(in[1])<<8)

	start := time.Now()
	res, err := s.pool.Run(s.pals[idx], flicker.SessionOptions{Input: in})
	lat := time.Since(start)
	s.rec.layer(c, spanPool, start, lat, 0)

	s.n++
	if err == nil {
		err = s.check(idx, in, res)
	}
	if s.n%scrapeEvery == 0 {
		if serr := s.scrape(); err == nil {
			err = serr
		}
	}
	return start, lat, err
}

func (s *sessionsMixed) check(idx int, in []byte, res *flicker.SessionResult) error {
	if res.PALError != nil {
		return res.PALError
	}
	if err := checkDigestEcho(in, res.Outputs); err != nil {
		return err
	}
	if s.n%pcrCheckEvery != 0 {
		return nil
	}
	key := imageKey{idx, res.SLBBase}
	im, ok := s.images[key]
	if !ok {
		var err error
		if im, err = flicker.BuildImage(s.pals[idx], false); err != nil {
			return err
		}
		if err := im.Patch(res.SLBBase); err != nil {
			return err
		}
		s.images[key] = im
	}
	if res.PCR17Final != flicker.ExpectedFinalPCR17(im, in, res.Outputs, nil) {
		return errors.New("PCR17Final does not match the verifier's recomputation")
	}
	return nil
}

// scrape is what an operator's /stats and /metrics poll costs.
func (s *sessionsMixed) scrape() error {
	t := time.Now()
	st := s.pool.Stats()
	err := s.pool.Metrics().WritePrometheus(io.Discard)
	d := time.Since(t)
	if s.scrapes == 0 {
		s.scrapeFirst = d
	}
	s.scrapeLast = d
	s.scrapes++
	if err == nil && st.Sessions != s.n {
		err = fmt.Errorf("pool stats count %d sessions, the client ran %d", st.Sessions, s.n)
	}
	return err
}

func (s *sessionsMixed) simNow() time.Duration { return s.pool.Shard(0).Clock.Now() }

func (s *sessionsMixed) registries() []*flicker.MetricsRegistry {
	return []*flicker.MetricsRegistry{s.pool.Metrics()}
}

func (s *sessionsMixed) net() netsim.LinkStats { return netsim.LinkStats{} }

func (s *sessionsMixed) platforms() []*flicker.Platform {
	return []*flicker.Platform{s.pool.Shard(0)}
}

func (s *sessionsMixed) extras() map[string]float64 {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return map[string]float64{
		"metrics.scrape_us_first": us(s.scrapeFirst),
		"metrics.scrape_us_last":  us(s.scrapeLast),
		"metrics.series":          float64(countSeries(s.registries())),
	}
}

func (s *sessionsMixed) seqDigest() uint64 { return s.seq }

func (s *sessionsMixed) close() { _ = s.pool.Close() }

// --- fabric_rpc and fabric_batch -------------------------------------------

const (
	fabricHosts    = 2
	fabricMinInput = 16
	fabricMaxInput = 1024
	// fabricBatchWait is the coalescer's MaxWait on the batched fleet. With
	// the 1 ms default a client descheduled for a millisecond leaves its
	// partner to flush a singleton frame, so batch formation, frame counts
	// and simulated time would follow the host's load. Every client runs the
	// same op count, so each group fills by count: client c's i-th request
	// always shares a frame with the other client's i-th, and the timer
	// never fires.
	fabricBatchWait = time.Second
)

type fabric struct {
	rec     *recorder
	sw      *flicker.NetSwitch
	ctrl    *flicker.FabricController
	hosts   []*flicker.FabricHost
	reg     *flicker.MetricsRegistry
	names   []string
	clients []fabricClient
}

type fabricClient struct {
	rng splitmix
	in  []byte
	seq uint64
}

// buildFabric stands up a controller and two quote-admitted hosts on
// ProfileFuture serving nPALs echo-with-digest PALs, wired like `flicker
// serve` wires its fleet: one registry, switch instrumented.
func buildFabric(seed uint64, rec *recorder, maxBatch, nPALs, clients int) (instance, error) {
	f := &fabric{rec: rec, reg: flicker.NewMetricsRegistry()}
	events := flicker.NewSecurityEventLog(0)
	f.sw = flicker.NewNetSwitch(200*time.Microsecond, 8*time.Nanosecond)
	f.sw.Instrument(f.reg, "fabric")
	pca, err := flicker.NewPrivacyCA([]byte("perfbench-fabric-ca"), 0)
	if err != nil {
		return nil, err
	}
	f.ctrl, err = flicker.NewFabricController(f.sw, pca, flicker.FabricControllerConfig{
		Seed:     "perfbench-fabric",
		Metrics:  f.reg,
		Events:   events,
		MaxBatch: maxBatch,
		MaxWait:  fabricBatchWait,
	})
	if err != nil {
		return nil, err
	}
	var pals []flicker.PAL
	for i := 0; i < nPALs; i++ {
		p := digestPAL(fmt.Sprintf("fab-%d", i), i*mixedPALStep)
		pals = append(pals, p)
		f.names = append(f.names, p.Name())
		if err := f.ctrl.RegisterPAL(p); err != nil {
			f.close()
			return nil, err
		}
	}
	for i := 0; i < fabricHosts; i++ {
		name := fmt.Sprintf("host%d", i)
		h, err := flicker.NewFabricHost(f.sw, pca, flicker.FabricHostConfig{
			Name: name,
			Platform: flicker.Config{
				Seed: "perfbench-fabric|" + name, Profile: flicker.ProfileFuture(),
				Metrics: f.reg, Events: events,
			},
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.hosts = append(f.hosts, h)
		for _, p := range pals {
			if err := h.RegisterPAL(p); err != nil {
				f.close()
				return nil, err
			}
		}
		if err := f.ctrl.Admit(name); err != nil {
			f.close()
			return nil, fmt.Errorf("admitting %s: %w", name, err)
		}
	}
	for c := 0; c < clients; c++ {
		f.clients = append(f.clients, fabricClient{
			rng: newSplitmix(seed, fmt.Sprintf("fabric-client-%d", c)),
			in:  make([]byte, fabricMaxInput),
		})
	}
	return f, nil
}

func (f *fabric) op(c int) (time.Time, time.Duration, error) {
	cl := &f.clients[c]
	idx := cl.rng.intn(len(f.names))
	in := cl.in[:fabricMinInput+cl.rng.intn(fabricMaxInput-fabricMinInput+1)]
	cl.rng.fill(in)
	cl.seq = mixSeq(cl.seq, uint64(idx), uint64(len(in)), uint64(in[0])|uint64(in[1])<<8)

	start := time.Now()
	out, err := f.ctrl.Run(f.names[idx], in)
	lat := time.Since(start)
	f.rec.layer(c, spanFabric, start, lat, 0)
	if err == nil {
		err = checkDigestEcho(in, out)
	}
	return start, lat, err
}

func (f *fabric) simNow() time.Duration {
	t := f.sw.Clock().Now()
	for _, p := range f.platforms() {
		t += p.Clock.Now()
	}
	return t
}

func (f *fabric) registries() []*flicker.MetricsRegistry {
	return []*flicker.MetricsRegistry{f.reg}
}

func (f *fabric) net() netsim.LinkStats { return f.sw.Stats() }

func (f *fabric) platforms() []*flicker.Platform {
	var ps []*flicker.Platform
	for _, h := range f.hosts {
		for i := 0; i < h.Pool().Shards(); i++ {
			ps = append(ps, h.Pool().Shard(i))
		}
	}
	return ps
}

func (f *fabric) extras() map[string]float64 { return nil }

func (f *fabric) seqDigest() uint64 {
	var h uint64
	for _, c := range f.clients {
		h = mixSeq(h, c.seq)
	}
	return h
}

func (f *fabric) close() {
	if f.ctrl != nil {
		_ = f.ctrl.Close()
	}
	for _, h := range f.hosts {
		_ = h.Close()
	}
}

// --- paper_apps -------------------------------------------------------------

const (
	// caBatchesPerKey is how many SignBatch calls of caBatch certificates
	// one CA key serves before the round re-runs Authority.Init. The CA's
	// sealed issuance database travels through the 4 KB output page, so it
	// fills: with this benchmark's 25-byte subjects the 17th batch of 4
	// fails with "core: reply of 259 bytes overflows the shared output
	// page" (single Sign calls fail after 88 certificates with "PAL output
	// of 4125 bytes exceeds the 4 KB output page").
	caBatchesPerKey = 16
	caBatch         = 4
	// distcompSlice is the factoring PAL's work budget per session; every
	// unit fits in one work session.
	distcompSlice = 100 * time.Millisecond
)

// Paper values the repository's tables carry (ms, Broadcom profile).
const (
	paperRootkitQueryMs = 1022.7
	paperSSHLoginMs     = 937.6
	paperCASignMs       = 906.2
)

type paperApps struct {
	rec *recorder
	p   *flicker.Platform
	rng splitmix
	seq uint64

	link    *netsim.Link
	admin   *rootkit.Admin
	rkHost  *rootkit.Host
	regions [][2]uint32

	sshSrv *sshauth.Server
	sshCl  *sshauth.Client
	pw     string

	auth      *ca.Authority
	csrKeys   [caBatch][]byte
	batches   int
	rotations int

	dsrv *distcomp.Server
	dcl  *distcomp.Client
}

func buildPaperApps(seed uint64, rec *recorder) (instance, error) {
	a := &paperApps{rec: rec, rng: newSplitmix(seed, "paper_apps")}
	p, err := flicker.NewPlatform(flicker.Config{Seed: "perfbench-apps", Profile: flicker.ProfileBroadcom()})
	if err != nil {
		return nil, err
	}
	a.p = p
	pca, err := flicker.NewPrivacyCA([]byte("perfbench-apps-ca"), 0)
	if err != nil {
		return nil, err
	}
	tqd, err := flicker.NewQuoteDaemon(p.OSTPM(), flicker.Digest{}, pca, "perfbench-apps")
	if err != nil {
		return nil, err
	}

	// Rootkit detector: the admin's known-good hash comes from the clean
	// kernel before any op runs.
	known, err := rootkit.KnownGoodFor(p.Kernel)
	if err != nil {
		return nil, err
	}
	a.admin = rootkit.NewAdmin(pca.PublicKey(), []byte("perfbench-admin"))
	a.admin.AddKnownGood(known)
	a.rkHost = rootkit.NewHost(p, tqd)
	a.regions = p.Kernel.MeasurableRegions()
	a.link = netsim.PaperLink(p.Clock)
	a.link.Instrument(p.Metrics, "admin")

	// SSH: the channel key is set up once; every round is a login.
	var pw [12]byte
	for i := range pw {
		pw[i] = 'a' + byte(a.rng.intn(26))
	}
	a.pw = string(pw[:])
	a.sshSrv = sshauth.NewServer(p, tqd)
	a.sshSrv.AddUser("bench", a.pw, "perfsalt")
	a.sshCl = sshauth.NewClient(pca.PublicKey(), []byte("perfbench-ssh-client"))
	cn := a.sshCl.FreshNonce()
	sr, err := a.sshSrv.Setup(cn)
	if err != nil {
		return nil, err
	}
	if err := a.sshCl.TrustSetup(sr, cn); err != nil {
		return nil, err
	}

	// CA: requesters' keys are fixed; subjects come from the seed.
	a.auth = ca.NewAuthority(p, &ca.Policy{AllowedSuffixes: []string{".bench.example"}})
	if err := a.auth.Init(); err != nil {
		return nil, err
	}
	for i := range a.csrKeys {
		key, err := palcrypto.GenerateRSAKey(palcrypto.NewPRNG([]byte(fmt.Sprintf("perfbench-csr-%d", i))), 512)
		if err != nil {
			return nil, err
		}
		a.csrKeys[i] = palcrypto.MarshalPublicKey(&key.RSAPublicKey)
	}

	// Distributed computing: the number and the unit size come from the
	// seed; every unit takes one init and one work session.
	n := uint64(1)<<40 + a.rng.next()%(1<<30)*2 + 1
	chunk := uint64(12000 + a.rng.intn(8001))
	a.seq = mixSeq(a.seq, n, chunk)
	a.dsrv = distcomp.NewServer(n, n, chunk, pca.PublicKey())
	a.dcl = &distcomp.Client{P: p, TQD: tqd, Slice: distcompSlice}
	return a, nil
}

func (a *paperApps) op(c int) (time.Time, time.Duration, error) {
	start := time.Now()
	err := a.round(c)
	return start, time.Since(start), err
}

// round is one op: a rootkit query, an SSH login, a CA batch and a
// distcomp unit, each checked.
func (a *paperApps) round(c int) error {
	var errs []error
	a.timed(c, spanRootkit, func() error {
		out := a.admin.Query(a.link, a.rkHost, a.regions)
		switch {
		case out.Err != nil:
			return fmt.Errorf("rootkit query: %w", out.Err)
		case !out.Verified || !out.Clean:
			return fmt.Errorf("rootkit query: verified=%v clean=%v", out.Verified, out.Clean)
		}
		return nil
	}, &errs)
	a.timed(c, spanSSH, func() error {
		nonce := a.sshSrv.FreshNonce()
		ct, err := a.sshCl.Encrypt(a.pw, nonce)
		if err != nil {
			return err
		}
		return a.sshSrv.Login("bench", ct, nonce)
	}, &errs)
	if a.batches == caBatchesPerKey {
		a.timed(c, spanCARotate, a.auth.Init, &errs)
		a.batches = 0
		a.rotations++
	}
	a.timed(c, spanCASign, a.signBatch, &errs)
	a.timed(c, spanDistcomp, func() error {
		unit, nonce, ok := a.dsrv.NextUnit()
		if !ok {
			return errors.New("distcomp: server ran out of units")
		}
		res, err := a.dcl.ProcessUnit(unit, nonce)
		if err != nil {
			return err
		}
		return a.dsrv.Submit(res)
	}, &errs)
	return errors.Join(errs...)
}

// timed runs one app call as a layer span, with its simulated duration.
func (a *paperApps) timed(c int, kind spanKind, f func() error, errs *[]error) {
	sim0 := a.p.Clock.Now()
	start := time.Now()
	err := f()
	a.rec.layer(c, kind, start, time.Since(start), a.p.Clock.Now()-sim0)
	if err != nil {
		*errs = append(*errs, err)
	}
}

func (a *paperApps) signBatch() error {
	a.batches++
	csrs := make([]*ca.CSR, caBatch)
	for i := range csrs {
		v := a.rng.next()
		a.seq = mixSeq(a.seq, v)
		csrs[i] = &ca.CSR{Subject: fmt.Sprintf("h%08x-%d.bench.example", uint32(v), i), PublicKey: a.csrKeys[i]}
	}
	certs, errs, err := a.auth.SignBatch(csrs)
	if err != nil {
		return fmt.Errorf("ca: %w", err)
	}
	for i, cert := range certs {
		if errs[i] != nil {
			return fmt.Errorf("ca: certificate %d of %d: %w", i+1, len(csrs), errs[i])
		}
		if cert.Subject != csrs[i].Subject {
			return fmt.Errorf("ca: certificate for %q names %q", csrs[i].Subject, cert.Subject)
		}
		if err := a.auth.Validate(cert); err != nil {
			return fmt.Errorf("ca: %w", err)
		}
	}
	return nil
}

func (a *paperApps) simNow() time.Duration { return a.p.Clock.Now() }

func (a *paperApps) registries() []*flicker.MetricsRegistry {
	return []*flicker.MetricsRegistry{a.p.Metrics}
}

func (a *paperApps) net() netsim.LinkStats { return a.link.Stats() }

func (a *paperApps) platforms() []*flicker.Platform { return []*flicker.Platform{a.p} }

func (a *paperApps) extras() map[string]float64 {
	return map[string]float64{"apps.ca_rotations": float64(a.rotations)}
}

func (a *paperApps) seqDigest() uint64 { return mixSeq(a.seq, uint64(len(a.pw)), uint64(a.pw[0])) }

func (a *paperApps) close() {}
