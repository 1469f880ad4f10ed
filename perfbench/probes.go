package main

import (
	"errors"
	"fmt"
	"time"

	"flicker"
	"flicker/internal/apps/ca"
	"flicker/internal/palcrypto"
)

// probeRounds is how many timed loops a probe runs; it reports the median
// loop's time per call.
const probeRounds = 5

// probe times iters calls of f, probeRounds times, and returns the median
// time per call.
func probe(iters int, f func() error) (time.Duration, error) {
	xs := make([]float64, probeRounds)
	for r := range xs {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		xs[r] = float64(time.Since(start)) / float64(iters)
	}
	return time.Duration(median(xs)), nil
}

// runProbes times public functions of single layers after the workload
// has run: PAL crypto, an idle netsim exchange, attestation verification
// and one CA signing session. Every probe sets its metrics, to zero when
// it fails.
func runProbes(set func(name string, v float64, unit string)) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var errs []error
	note := func(what string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s probe: %w", what, err))
		}
	}

	// palcrypto SHA-1 over a small input, a page, and a whole SLB image.
	im, err := flicker.BuildImage(digestPAL("probe", 0), false)
	note("slb image", err)
	for _, c := range []struct {
		name  string
		size  int
		iters int
	}{{"64B", 64, 20000}, {"4KB", 4096, 1000}, {"slb", 0, 40}} {
		buf := make([]byte, c.size)
		if c.name == "slb" && im != nil {
			buf = im.Bytes()
		}
		d, err := probe(c.iters, func() error { _ = palcrypto.SHA1Sum(buf); return nil })
		note("sha1", err)
		set("palcrypto.sha1_ns."+c.name, float64(d), "ns")
	}

	// palcrypto RSA at the paper's 1024-bit key size.
	key, err := palcrypto.GenerateRSAKey(palcrypto.NewPRNG([]byte("perfbench-probe-rsa")), 1024)
	var dec, sig time.Duration
	if err == nil {
		var ct []byte
		ct, err = palcrypto.EncryptPKCS1(palcrypto.NewPRNG([]byte("perfbench-probe-pad")), &key.RSAPublicKey, []byte("probe message"))
		if err == nil {
			dec, err = probe(20, func() error { _, err := palcrypto.DecryptPKCS1(key, ct); return err })
		}
		if err == nil {
			sig, err = probe(20, func() error { _, err := palcrypto.SignPKCS1SHA1(key, []byte("probe message")); return err })
		}
	}
	note("rsa", err)
	set("palcrypto.rsa_decrypt_us", us(dec), "us")
	set("palcrypto.rsa_sign_us", us(sig), "us")

	// netsim: an idle echo exchange between two ports.
	var call time.Duration
	sw := flicker.NewNetSwitch(200*time.Microsecond, 8*time.Nanosecond)
	a, err := sw.Attach("probe-a", nil)
	if err == nil {
		_, err = sw.Attach("probe-b", func(req []byte) []byte { return req })
	}
	if err == nil {
		msg := make([]byte, 256)
		call, err = probe(2000, func() error { _, err := a.Call("probe-b", msg); return err })
	}
	note("netsim", err)
	set("netsim.call_us", us(call), "us")

	verify, signUs, signSimMs, err := probeAttestAndCA()
	note("attest/ca", err)
	set("attest.verify_us", us(verify), "us")
	set("apps.ca_sign_us", us(signUs), "us")
	set("apps.ca_sign_sim_ms", signSimMs, "ms")
	errPct := 0.0
	if signSimMs > 0 {
		errPct = 100 * (signSimMs - paperCASignMs) / paperCASignMs
	}
	set("apps.ca_sign_sim_err_pct", errPct, "%")
	return errors.Join(errs...)
}

// probeAttestAndCA times VerifySession on an attested session, and one
// single-certificate CA Sign session (the paper's Section 7.4.2 figure).
func probeAttestAndCA() (verify, sign time.Duration, signSimMs float64, err error) {
	p, err := flicker.NewPlatform(flicker.Config{Seed: "perfbench-probe", Profile: flicker.ProfileBroadcom()})
	if err != nil {
		return
	}
	pca, err := flicker.NewPrivacyCA([]byte("perfbench-probe-ca"), 0)
	if err != nil {
		return
	}
	tqd, err := flicker.NewQuoteDaemon(p.OSTPM(), flicker.Digest{}, pca, "perfbench-probe")
	if err != nil {
		return
	}
	pl := digestPAL("probe-attest", 0)
	nonce := flicker.SHA1Sum([]byte("perfbench-probe-nonce"))
	input := []byte("attested input")
	res, err := p.RunSession(pl, flicker.SessionOptions{Input: input, Nonce: &nonce})
	if err != nil {
		return
	}
	att, err := tqd.Quote(nonce)
	if err != nil {
		return
	}
	im, err := flicker.BuildImage(pl, false)
	if err != nil {
		return
	}
	if err = im.Patch(res.SLBBase); err != nil {
		return
	}
	verify, err = probe(20, func() error {
		return flicker.VerifySession(pca.PublicKey(), att, nonce, im, input, res.Outputs)
	})
	if err != nil {
		return
	}

	auth := ca.NewAuthority(p, &ca.Policy{AllowedSuffixes: []string{".bench.example"}})
	if err = auth.Init(); err != nil {
		return
	}
	key, err := palcrypto.GenerateRSAKey(palcrypto.NewPRNG([]byte("perfbench-probe-csr")), 512)
	if err != nil {
		return
	}
	csr := &ca.CSR{Subject: "probe.bench.example", PublicKey: palcrypto.MarshalPublicKey(&key.RSAPublicKey)}
	sim0 := p.Clock.Now()
	start := time.Now()
	cert, err := auth.Sign(csr)
	sign = time.Since(start)
	signSimMs = float64(p.Clock.Now()-sim0) / 1e6
	if err == nil {
		err = auth.Validate(cert)
	}
	return
}
