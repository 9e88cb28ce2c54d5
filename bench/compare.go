package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
)

// Verdicts of the comparator, by the rule of the choosing-metrics guide.
const (
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictUnchanged  = "unchanged"
)

// comparison is one (workload, metric) row of a comparison.
type comparison struct {
	baseMedian, baseQ1, baseQ3 float64
	headMedian, headQ1, headQ3 float64
	wins, ties, pairs          int
	// worse counts the pairs of a paired metric that ran the same jobs
	// and whose head run reads worse than its base run by more than the
	// pair bound.
	worse   int
	verdict string
}

// compareMetric judges head against base for one metric. Runs are
// paired in order; a pair is won when the head run reads strictly
// better, and ties count for neither side. sameJobs[k] reports whether
// the runs of pair k ran the same jobs; the paired check skips the
// others and any pair past the end of sameJobs.
//
//   - regressed: the head median is worse than the base median by more
//     than the bound or, for a paired metric, a pair that ran the same
//     jobs is worse by more than the pair bound;
//   - improved: head wins at least 9 in 10 pairs and the medians differ
//     by more than the base runs' interquartile range;
//   - unresolved: the spread of either side is wider than the bound and
//     not every head run is better than every base run;
//   - unchanged: none of these.
func compareMetric(spec metricSpec, base, head []float64, sameJobs []bool) comparison {
	c := comparison{pairs: min(len(base), len(head))}
	c.baseMedian, c.headMedian = median(base), median(head)
	c.baseQ1, c.baseQ3 = quartiles(base)
	c.headQ1, c.headQ3 = quartiles(head)
	// better > 0 when a reads better than b.
	better := func(a, b float64) float64 {
		if spec.better == "higher" {
			return a - b
		}
		return b - a
	}
	for k := 0; k < c.pairs; k++ {
		d := better(head[k], base[k])
		switch {
		case d > 0:
			c.wins++
		case d == 0:
			c.ties++
		}
		if spec.paired && k < len(sameJobs) && sameJobs[k] && -d > spec.pairBound {
			c.worse++
		}
	}
	limit, spread := spec.bound, math.Max(c.baseQ3-c.baseQ1, c.headQ3-c.headQ1)
	if !spec.absolute {
		limit *= math.Abs(c.baseMedian)
	}
	gain := better(c.headMedian, c.baseMedian)
	switch {
	case -gain > limit || c.worse > 0:
		c.verdict = verdictRegressed
	case c.pairs > 0 && 10*c.wins >= 9*c.pairs && gain > c.baseQ3-c.baseQ1:
		c.verdict = verdictImproved
	case spread > limit && !allBetter(head, base, better):
		c.verdict = verdictUnresolved
	default:
		c.verdict = verdictUnchanged
	}
	return c
}

// allBetter reports whether every head value reads better than every
// base value.
func allBetter(head, base []float64, better func(a, b float64) float64) bool {
	for _, h := range head {
		for _, b := range base {
			if better(h, b) <= 0 {
				return false
			}
		}
	}
	return len(head) > 0 && len(base) > 0
}

// runCompare compares the end-to-end metrics of two sets of run files
// (glob patterns, paired in sorted order), prints one row per workload
// and metric plus the number of jobs whose result changed, and reports
// whether any metric regressed.
func runCompare(basePattern, headPattern string, w io.Writer) (regressed bool, err error) {
	base, err := loadRuns(basePattern)
	if err != nil {
		return false, err
	}
	head, err := loadRuns(headPattern)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "base: %d runs (%s)  head: %d runs (%s)\n", len(base), basePattern, len(head), headPattern)
	fmt.Fprintf(w, "%-13s %-16s %28s %28s %9s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "head wins", "verdict")
	for _, wl := range workloads {
		var baseRuns, headRuns []*workloadRun
		for _, rf := range base {
			if r := rf.Workloads[wl.name]; r != nil {
				baseRuns = append(baseRuns, r)
			}
		}
		for _, rf := range head {
			if r := rf.Workloads[wl.name]; r != nil {
				headRuns = append(headRuns, r)
			}
		}
		if len(baseRuns) == 0 || len(headRuns) == 0 {
			continue
		}
		same := sameJobPairs(base, head, wl.name)
		for _, spec := range append(append([]metricSpec(nil), endToEnd...), failedRatio) {
			b, h := metricValues(baseRuns, spec.name), metricValues(headRuns, spec.name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			c := compareMetric(spec, b, h, same)
			regressed = regressed || c.verdict == verdictRegressed
			verdict := c.verdict
			if c.worse > 0 {
				verdict += fmt.Sprintf(" (%d paired runs worse)", c.worse)
			}
			fmt.Fprintf(w, "%-13s %-16s %28s %28s %9s  %s\n", wl.name, spec.name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.baseMedian, c.baseQ1, c.baseQ3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", c.headMedian, c.headQ1, c.headQ3),
				fmt.Sprintf("%d/%d", c.wins, c.pairs), verdict)
		}
		changed, compared, skipped := resultsChanged(base, head, wl.name)
		note := ""
		if skipped > 0 {
			note = fmt.Sprintf(" (%d pairs skipped: seeds differ)", skipped)
		}
		fmt.Fprintf(w, "%-13s %-16s %d of %d jobs%s\n", wl.name, "results_changed", changed, compared, note)
	}
	return regressed, nil
}

// sameJobPairs reports, for each pair of runs of one workload, whether
// its two runs ran the same jobs: the same seed, and neither stopped at
// the time cap after fewer jobs than the other.
func sameJobPairs(base, head []*runFile, name string) []bool {
	var out []bool
	for k := 0; k < min(len(base), len(head)); k++ {
		b, h := base[k].Workloads[name], head[k].Workloads[name]
		if b == nil || h == nil {
			continue
		}
		out = append(out, base[k].Seed == head[k].Seed && b.Attempted == h.Attempted)
	}
	return out
}

func metricValues(runs []*workloadRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// resultsChanged counts the jobs whose digest differs between paired
// runs of one workload. Only pairs with the same seed ran the same
// requests; the others are skipped.
func resultsChanged(base, head []*runFile, name string) (changed, compared, skipped int) {
	for k := 0; k < min(len(base), len(head)); k++ {
		b, h := base[k].Workloads[name], head[k].Workloads[name]
		if b == nil || h == nil {
			continue
		}
		if base[k].Seed != head[k].Seed {
			skipped++
			continue
		}
		for i := 0; i < min(len(b.Digests), len(h.Digests)); i++ {
			if b.Digests[i] == "" || h.Digests[i] == "" {
				continue
			}
			compared++
			if b.Digests[i] != h.Digests[i] {
				changed++
			}
		}
	}
	return changed, compared, skipped
}

func loadRuns(pattern string) ([]*runFile, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, fmt.Errorf("bad pattern %q: %w", pattern, err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no run files match %q", pattern)
	}
	sort.Strings(paths)
	out := make([]*runFile, 0, len(paths))
	for _, p := range paths {
		rf, err := readRunFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, rf)
	}
	return out, nil
}
