package main

import (
	"math"
	"sort"
	"time"
)

// metricSpec describes one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; BENCHMARK.json carries the same values.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	// absolute makes bound an absolute difference instead of a share.
	absolute bool
	// paired also judges the metric run by run: the comparator calls it
	// regressed when any head run reads worse than the base run of the
	// same seed by more than pairBound (absolute). It is for metrics that
	// do not depend on timing, so that one seed always reproduces them.
	paired    bool
	pairBound float64
}

// endToEnd are the metrics a REDS user sees, measured with tracing off.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "jobs_per_s", unit: "jobs/s", better: "higher", bound: 0.25},
	{name: "latency_p50_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s_per_job", unit: "s", better: "lower", bound: 0.25},
	{name: "rss_peak_mib", unit: "MiB", better: "lower", bound: 0.25},
	// The share bound covers the spread across seeds; a quality loss on
	// the same requests is caught pair by pair.
	{name: "wracc_test_mean", unit: "1", better: "higher", bound: 0.25, paired: true, pairBound: 0.002},
}

// failedRatio is reported with the end-to-end metrics but kept out of
// BENCHMARK.json, whose metrics must never be 0; any failure fails the
// run anyway. A head run that fails more jobs than its base run regresses.
var failedRatio = metricSpec{name: "failed_ratio", unit: "ratio", better: "lower", bound: 0, absolute: true, paired: true}

// perLayer are the traced run's metrics that every workload measures.
// They have no bound.
var perLayer = []metricSpec{
	{name: "api.submit_s", unit: "s", better: "lower"},
	{name: "api.result_s", unit: "s", better: "lower"},
	{name: "api.overhead_s", unit: "s", better: "lower"},
	{name: "engine.queue_wait_s", unit: "s", better: "lower"},
	{name: "engine.overhead_s", unit: "s", better: "lower"},
	{name: "engine.progress_cb_s", unit: "s", better: "lower"},
	{name: "engine.checkpoints_per_job", unit: "count", better: "lower"},
	{name: "store.put_checkpoint_s", unit: "s", better: "lower"},
	{name: "store.checkpoint_mib_per_job", unit: "MiB", better: "lower"},
	{name: "store.put_result_s", unit: "s", better: "lower"},
	{name: "store.ops_per_job", unit: "count", better: "lower"},
	{name: "exec.wall_s", unit: "s", better: "lower"},
	{name: "exec.unattributed_s", unit: "s", better: "lower"},
	{name: "funcs.simulate_s", unit: "s", better: "lower"},
	{name: "metamodel.train_s", unit: "s", better: "lower"},
	{name: "core.label_s", unit: "s", better: "lower"},
	{name: "prim.discover_s", unit: "s", better: "lower"},
	{name: "cache.model_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.label_hit_ratio", unit: "ratio", better: "higher"},
}

// perLayerExtra are per-layer metrics only some workloads measure
// (HTTP, cluster, bi, fast paths). They are printed and written to the
// run file where they apply, never to the result line.
var perLayerExtra = []metricSpec{
	{name: "api.polls_per_job", unit: "count", better: "lower"},
	{name: "cluster.dispatch_overhead_s", unit: "s", better: "lower"},
	{name: "cluster.worker_skew", unit: "ratio", better: "lower"},
	{name: "cluster.failovers", unit: "count", better: "lower"},
	{name: "bi.discover_s", unit: "s", better: "lower"},
	{name: "metamodel.binned_ratio", unit: "ratio", better: "higher"},
	{name: "ruleset.distilled_ratio", unit: "ratio", better: "higher"},
	{name: "ruleset.fidelity_mean", unit: "ratio", better: "higher"},
	{name: "cache.ruleset_hit_ratio", unit: "ratio", better: "higher"},
	{name: "cache.evictions", unit: "count", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

func specByName(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{endToEnd, {failedRatio}, perLayer, perLayerExtra} {
		for _, s := range list {
			if s.name == name {
				return s, true
			}
		}
	}
	return metricSpec{}, false
}

// percentile interpolates linearly between the closest ranks of xs
// (p in [0,1]). NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" default), so
// spreads read the same as in tools built on it. One sample is its own
// quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// unionSeconds is the length of the union of the intervals, clipped to
// within.
func unionSeconds(ivs []interval, within interval) float64 {
	var clipped []interval
	for _, iv := range ivs {
		if iv.start.Before(within.start) {
			iv.start = within.start
		}
		if iv.end.After(within.end) {
			iv.end = within.end
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].start.Before(clipped[b].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case !iv.start.After(cur.end):
			if iv.end.After(cur.end) {
				cur.end = iv.end
			}
		default:
			total += cur.end.Sub(cur.start)
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total.Seconds()
}
