package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"flicker"
)

// counters is a flattened registry snapshot: every counter and gauge
// value, and every histogram's count and sum, keyed by family and labels.
type counters map[string]seriesValue

type seriesValue struct {
	family string
	labels map[string]string
	value  float64
	count  float64
	sum    float64
}

func snapshotCounters(regs []*flicker.MetricsRegistry) counters {
	c := counters{}
	for _, reg := range regs {
		for _, f := range reg.Snapshot().Families {
			for _, s := range f.Series {
				key := f.Name + "{" + labelString(s.Labels) + "}"
				v := c[key]
				v.family, v.labels = f.Name, s.Labels
				v.value += s.Value
				v.count += float64(s.Count)
				v.sum += s.Sum
				c[key] = v
			}
		}
	}
	return c
}

func labelString(l map[string]string) string {
	parts := make([]string, 0, len(l))
	for k, v := range l {
		parts = append(parts, k+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// minus returns c - before, series by series.
func (c counters) minus(before counters) counters {
	d := counters{}
	for k, v := range c {
		b := before[k]
		v.value -= b.value
		v.count -= b.count
		v.sum -= b.sum
		d[k] = v
	}
	return d
}

// plus accumulates o into c.
func (c counters) plus(o counters) {
	for k, v := range o {
		a := c[k]
		a.family, a.labels = v.family, v.labels
		a.value += v.value
		a.count += v.count
		a.sum += v.sum
		c[k] = a
	}
}

// total sums one field over the series of family whose labels include
// every pair in match ("k=v" strings).
func (c counters) total(family string, field func(seriesValue) float64, match ...string) float64 {
	var t float64
	for _, v := range c {
		if v.family != family {
			continue
		}
		ok := true
		for _, m := range match {
			k, want, _ := strings.Cut(m, "=")
			if v.labels[k] != want {
				ok = false
				break
			}
		}
		if ok {
			t += field(v)
		}
	}
	return t
}

func valueOf(v seriesValue) float64 { return v.value }
func countOf(v seriesValue) float64 { return v.count }
func sumOf(v seriesValue) float64   { return v.sum }

// labelValues lists the distinct values of one label within a family.
func (c counters) labelValues(family, label string) []string {
	seen := map[string]bool{}
	for _, v := range c {
		if v.family == family && v.labels[label] != "" {
			seen[v.labels[label]] = true
		}
	}
	var out []string
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func countSeries(regs []*flicker.MetricsRegistry) int {
	n := 0
	for _, reg := range regs {
		for _, f := range reg.Snapshot().Families {
			n += len(f.Series)
		}
	}
	return n
}

// tpmOrdinals are the TPM commands reported one by one; any other ordinal
// a workload issues is folded into "other".
var tpmOrdinals = []string{"extend", "getrandom", "hashdigest", "hashstart", "oiap", "pcrread", "quote", "seal", "unseal"}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer builds the traced run's per-layer table. plain is the untraced
// half of the run, the base for the tracing overhead and the runtime
// metrics. The error reports a violated invariant of a healthy run.
func (s *summary) perLayer(plain *summary) (map[string]metric, error) {
	rec := s.rec
	c := counters{}
	var sent, recv int64
	var wire time.Duration
	ops := 0
	for _, r := range s.reps {
		c.plus(r.counters)
		sent += r.net.BytesSent
		recv += r.net.BytesReceived
		wire += r.net.WireTime
		ops += r.ops
	}
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	usOf := func(ns int64, n int) float64 { return ratio(float64(ns)/1e3, float64(n)) }

	// pool and fabric: the layer's span minus the session time inside it.
	t := rec.times
	set("pool.handoff_us", usOf(t.layerSelf[spanPool], t.layerCount[spanPool]), "us")
	set("fabric.overhead_us", usOf(t.layerSelf[spanFabric], t.layerCount[spanFabric]), "us")

	// core: observer stamps per session.
	for i, p := range phases {
		set("core.phase_us."+p, usOf(rec.phaseWall[i], rec.nSessions), "us")
		set("core.sim_phase_us."+p, usOf(int64(rec.phaseSim[i]), rec.nSessions), "us")
	}
	countMetrics(c, ops, set)

	// netsim
	set("netsim.bytes_per_op", perOp(float64(sent+recv)), "bytes")
	set("netsim.sim_wire_us_per_op", perOp(float64(wire)/1e3), "us")

	// metrics and apps: repetition extras, median over repetitions.
	extra := func(name string) float64 {
		return s.repMedian(func(r *repStats) float64 { return r.extras[name] })
	}
	set("metrics.scrape_us_first", extra("metrics.scrape_us_first"), "us")
	set("metrics.scrape_us_last", extra("metrics.scrape_us_last"), "us")
	set("metrics.series", extra("metrics.series"), "count")
	set("apps.ca_rotations", extra("apps.ca_rotations"), "count")
	for _, a := range []struct {
		name  string
		kind  spanKind
		paper float64
	}{
		{"rootkit_query", spanRootkit, paperRootkitQueryMs},
		{"ssh_login", spanSSH, paperSSHLoginMs},
		{"ca_sign_batch", spanCASign, 0},
		{"distcomp_unit", spanDistcomp, 0},
	} {
		n := t.layerCount[a.kind]
		simMs := ratio(float64(t.layerSim[a.kind])/1e6, float64(n))
		set("apps."+a.name+"_us", usOf(t.layerTotal[a.kind], n), "us")
		set("apps."+a.name+"_sim_ms", simMs, "ms")
		if a.paper > 0 {
			errPct := 0.0
			if n > 0 {
				errPct = 100 * (simMs - a.paper) / a.paper
			}
			set("apps."+a.name+"_sim_err_pct", errPct, "%")
		}
	}

	// runtime, from the untraced half.
	set("runtime.retained_bytes_per_op", plain.repMedian(func(r *repStats) float64 {
		return (float64(r.heapLive) - float64(r.heapBase)) / float64(r.ops)
	}), "bytes")
	set("runtime.gc_cycles_per_kop", plain.repMedian(func(r *repStats) float64 {
		return 1000 * float64(r.numGC) / float64(r.ops)
	}), "count")
	set("runtime.gc_cpu_fraction", plain.repMedian(func(r *repStats) float64 {
		return ratio(r.gcCPU, r.availCPU)
	}), "ratio")

	// trace
	set("trace.unattributed_pct", 100*ratio(float64(t.unattributed), float64(t.rootTotal)), "%")
	base := plain.throughput()
	set("trace.overhead_pct", 100*ratio(base-s.throughput(), base), "%")

	if err := runProbes(set); err != nil {
		return m, err
	}
	if r := m["fabric.resubmits"].Value; r != 0 {
		return m, fmt.Errorf("fabric resubmitted %.0f jobs in a fault-free run", r)
	}
	return m, nil
}

// countMetrics sets the per-layer metrics that are registry counts. For a
// fixed seed they repeat exactly between runs.
func countMetrics(c counters, ops int, set func(name string, v float64, unit string)) {
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }

	set("pool.queue_delay_us", 1e6*ratio(c.total("flicker_pool_queue_delay_seconds", sumOf),
		c.total("flicker_pool_queue_delay_seconds", countOf)), "us")
	set("pool.batch_size_mean", ratio(c.total("flicker_pool_batch_size", sumOf),
		c.total("flicker_pool_batch_size", countOf)), "count")
	set("pool.flush_full_ratio", ratio(c.total("flicker_pool_batch_flush_total", valueOf, "reason=full"),
		c.total("flicker_pool_batch_flush_total", valueOf)), "ratio")

	set("fabric.frames_per_op", perOp(c.total("flicker_net_roundtrips_total", valueOf, "link=fabric")), "count")
	set("fabric.batch_size_mean", ratio(c.total("flicker_fabric_batch_size", sumOf),
		c.total("flicker_fabric_batch_size", countOf)), "count")
	set("fabric.flush_full_ratio", ratio(c.total("flicker_fabric_batch_flush_total", valueOf, "reason=full"),
		c.total("flicker_fabric_batch_flush_total", valueOf)), "ratio")
	set("fabric.window_waits_per_op", perOp(c.total("flicker_fabric_window_waits_total", valueOf)), "count")
	set("fabric.resubmits", c.total("flicker_fabric_resubmits_total", valueOf), "count")

	set("core.sessions_per_op", perOp(c.total("flicker_sessions_total", valueOf)), "count")

	hits := c.total("flicker_skinit_measure_cache_total", valueOf, "result=hit")
	set("hw.measure_hit_ratio", ratio(hits, c.total("flicker_skinit_measure_cache_total", valueOf)), "ratio")
	set("hw.skinit_per_op", perOp(c.total("flicker_skinit_attempts_total", valueOf, "result=ok")), "count")
	set("hw.dma_bytes_per_op", perOp(c.total("flicker_dma_bytes_total", valueOf)), "bytes")
	set("hw.tis_requests_per_op", perOp(c.total("flicker_tis_requests_total", valueOf)), "count")

	// tpm: every ordinal the workload issued.
	var otherCmds, otherSum, otherCount float64
	known := map[string]bool{}
	for _, o := range tpmOrdinals {
		known[o] = true
		set("tpm.cmds_per_op."+o, perOp(c.total("flicker_tpm_commands_total", valueOf, "ordinal="+o)), "count")
		set("tpm.sim_cmd_us."+o, 1e6*ratio(c.total("flicker_tpm_command_seconds", sumOf, "ordinal="+o),
			c.total("flicker_tpm_command_seconds", countOf, "ordinal="+o)), "us")
	}
	for _, o := range c.labelValues("flicker_tpm_commands_total", "ordinal") {
		if n := c.total("flicker_tpm_commands_total", valueOf, "ordinal="+o); !known[o] && n > 0 {
			fmt.Printf("  tpm ordinal %s (%.0f commands) is reported under tpm.*.other\n", o, n)
			otherCmds += n
			otherSum += c.total("flicker_tpm_command_seconds", sumOf, "ordinal="+o)
			otherCount += c.total("flicker_tpm_command_seconds", countOf, "ordinal="+o)
		}
	}
	set("tpm.cmds_per_op.other", perOp(otherCmds), "count")
	set("tpm.sim_cmd_us.other", 1e6*ratio(otherSum, otherCount), "us")
}
