package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 7}, 0.75, 8.25}, // with few samples the method extrapolates past the data
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestUnionSeconds(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	ivs := []interval{{at(1), at(3)}, {at(2), at(4)}, {at(6), at(7)}, {at(-1), at(0.5)}}
	if got := unionSeconds(ivs, interval{at(0), at(10)}); got != 4.5 {
		t.Fatalf("union = %v, want 4.5", got)
	}
	if got := unionSeconds(nil, interval{at(0), at(1)}); got != 0 {
		t.Fatalf("empty union = %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{name: "latency_p50_s", better: "lower", bound: 0.10}
	higher := metricSpec{name: "jobs_per_s", better: "higher", bound: 0.10}
	failed := failedRatio
	wracc, _ := specByName("wracc_test_mean")
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	quality := scale(steady, 0.14)
	slightlyLower := append([]float64(nil), quality...)
	slightlyLower[3] -= 0.001
	sameJobs := func(n int) []bool { return slices.Repeat([]bool{true}, n) }
	cases := []struct {
		name       string
		spec       metricSpec
		base, head []float64
		same       []bool
		want       string
		wins       int
	}{
		{"identical runs", lower, steady, steady, nil, verdictUnchanged, 0},
		{"slower beyond the bound", lower, steady, scale(steady, 1.2), nil, verdictRegressed, 0},
		{"slower within the bound", lower, steady, scale(steady, 1.05), nil, verdictUnchanged, 0},
		{"faster in every pair", lower, steady, scale(steady, 0.9), nil, verdictImproved, 10},
		{"lower throughput beyond the bound", higher, steady, scale(steady, 0.85), nil, verdictRegressed, 0},
		{"higher throughput in every pair", higher, steady, scale(steady, 1.1), nil, verdictImproved, 10},
		{"faster but inside the parent's spread", lower,
			[]float64{1.0, 1.2, 0.8, 1.1, 0.9}, []float64{0.99, 1.19, 0.79, 1.09, 0.89}, nil, verdictUnresolved, 5},
		{"noisy and mixed", lower,
			[]float64{1.0, 1.3, 0.8, 1.2, 0.9}, []float64{1.1, 0.8, 1.25, 0.95, 1.0}, nil, verdictUnresolved, 2},
		{"noisy but every head run better", lower,
			[]float64{2.0, 2.6, 1.8, 2.4, 2.2}, []float64{1.0, 1.3, 0.9, 1.2, 1.1}, nil, verdictImproved, 5},
		{"a failure where there was none", failed, []float64{0, 0, 0}, []float64{0, 0.05, 0}, sameJobs(3), verdictRegressed, 0},
		{"failures in most runs", failed, []float64{0, 0, 0}, []float64{0.05, 0.05, 0}, sameJobs(3), verdictRegressed, 0},
		{"no failures on either side", failed, []float64{0, 0, 0}, []float64{0, 0, 0}, sameJobs(3), verdictUnchanged, 0},
		{"quality 20% lower on the same jobs", wracc, quality, scale(quality, 0.8), sameJobs(10), verdictRegressed, 0},
		{"quality lower within the pair bound", wracc, quality, slightlyLower, sameJobs(10), verdictUnchanged, 0},
		// Runs of different seeds score different requests; only the
		// median rule applies to them.
		{"quality 20% lower on other seeds", wracc, quality, scale(quality, 0.8), make([]bool, 10), verdictUnchanged, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := compareMetric(c.spec, c.base, c.head, c.same)
			if got.verdict != c.want || got.wins != c.wins {
				t.Fatalf("verdict %q with %d/%d wins; want %q with %d wins (%+v)", got.verdict, got.wins, got.pairs, c.want, c.wins, got)
			}
		})
	}
	if c := compareMetric(lower, steady, steady, nil); c.ties != len(steady) {
		t.Fatalf("identical pairs: %d ties, want %d", c.ties, len(steady))
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which declares the
// benchmark's command and metrics, in step with the metric and workload tables
// the program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, program %q %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, s := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != s.name || got.Unit != s.unit || got.Better != s.better || got.Bound != s.bound {
			t.Errorf("end_to_end %d: listed %+v, program %+v", i, got, s)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		got := b.PerLayer[i]
		if got.Name != s.name || got.Unit != s.unit || got.Better != s.better {
			t.Errorf("per_layer %d: listed %+v, program %+v", i, got, s)
		}
	}
}

// TestSmoke runs every workload at 3 jobs with all checks, one traced
// run through the single-workload entry point, and the comparator on two sets
// of the resulting run files.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every harness and runs real jobs")
	}
	const seed = 7
	ctx := context.Background()
	dir := t.TempDir()
	runs := map[string]*workloadRun{}
	for _, w := range workloads {
		if w.name == "fast_paths" {
			continue // run traced below
		}
		run, err := runWorkload(ctx, runConfig{w: w, seed: seed, seconds: 60, jobs: 3, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !run.Correct || run.Attempted != 3 {
			t.Fatalf("%s: correct=%v attempted=%d errors=%v", w.name, run.Correct, run.Attempted, run.Errors)
		}
		for _, s := range endToEnd {
			if v, ok := run.Metrics[s.name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v, want > 0", w.name, s.name, v)
			}
		}
		runs[w.name] = run
	}

	w, _ := workloadByName("fast_paths")
	var stdout bytes.Buffer
	traceFile := filepath.Join(dir, "trace.json")
	runFile := filepath.Join(dir, "fast_paths.json")
	err := runSingle(&stdout, runConfig{w: w, seed: seed, seconds: 60, jobs: 3, setups: 1, traced: true}, traceFile, runFile)
	if err != nil {
		t.Fatalf("traced fast_paths: %v\n%s", err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !line.Correct || line.Attempted != 3 || line.Failed != 0 {
		t.Fatalf("result line %+v", line)
	}
	var names []string
	for name := range line.Metrics {
		names = append(names, name)
	}
	var want []string
	for _, s := range perLayer {
		want = append(want, s.name)
	}
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("traced result metrics %v, want the per-layer set %v", names, want)
	}
	for _, extra := range []string{"bi.discover_s", "metamodel.binned_ratio", "ruleset.distilled_ratio", "api.polls_per_job"} {
		if !strings.Contains(stdout.String(), "fast_paths "+extra+" ") {
			t.Errorf("traced fast_paths did not print %s", extra)
		}
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil || len(ct.TraceEvents) == 0 {
		t.Fatalf("trace file: %v, %d events", err, len(ct.TraceEvents))
	}
	traced, err := readRunFile(runFile)
	if err != nil {
		t.Fatal(err)
	}
	runs["fast_paths"] = traced.Workloads["fast_paths"]

	for _, side := range []string{"base", "head"} {
		if err := os.Mkdir(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeRunFile(filepath.Join(dir, side, "run1.json"), newRunFile(seed, 60, runs)); err != nil {
			t.Fatal(err)
		}
	}
	var report bytes.Buffer
	regressed, err := runCompare(filepath.Join(dir, "base", "*.json"), filepath.Join(dir, "head", "*.json"), &report)
	if err != nil || regressed {
		t.Fatalf("compare of a run with itself: regressed=%v err=%v\n%s", regressed, err, report.String())
	}
	for _, w := range workloads {
		if !strings.Contains(report.String(), w.name+" ") {
			t.Errorf("compare report has no row for %s:\n%s", w.name, report.String())
		}
	}
	if strings.Count(report.String(), "results_changed  0 of") != len(workloads) {
		t.Errorf("compare report should show no changed results:\n%s", report.String())
	}
}
