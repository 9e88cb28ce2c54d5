package engine

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestBinnedTrainingEndToEnd runs a real tuned job on the binned fast
// path through the engine: the variant reports mode "binned", its
// scenario quality lands near the exact mode's, and the model cache
// keeps the two modes strictly apart while repeat binned jobs still
// hit.
func TestBinnedTrainingEndToEnd(t *testing.T) {
	x := NewLocalExecutor(LocalExecutorOptions{})
	e := newTestEngine(t, Options{Workers: 1, Executor: x})
	defer e.Close()

	d := testDataset(300, rand.New(rand.NewSource(21)))
	_, exact := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 22, Tuned: true})
	if exact.Best.TrainMode != "exact" {
		t.Fatalf("default train mode = %q, want exact", exact.Best.TrainMode)
	}
	if exact.Best.TrainFallbackReason != "" {
		t.Fatalf("exact mode reports a fallback: %q", exact.Best.TrainFallbackReason)
	}

	misses := x.CacheStats().Misses
	_, binned := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 22, Tuned: true, TrainMode: "binned"})
	best := binned.Best
	if best.TrainMode != "binned" {
		t.Fatalf("train mode = %q (fallback %q), want binned", best.TrainMode, best.TrainFallbackReason)
	}
	if best.CacheHit {
		t.Fatalf("binned job hit the exact model cache entry")
	}
	if got := x.CacheStats().Misses; got == misses {
		t.Fatalf("binned job trained no model (misses still %d)", misses)
	}
	if diff := math.Abs(best.WRAcc - exact.Best.WRAcc); diff > 0.1 {
		t.Fatalf("binned WRAcc %.4f vs exact %.4f: diff %.4f > 0.1",
			best.WRAcc, exact.Best.WRAcc, diff)
	}

	// A repeat binned job reuses the binned entry and still reports its
	// mode: the resolution is per request, not per cache entry.
	_, again := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 22, Tuned: true, TrainMode: "binned"})
	if !again.Best.CacheHit {
		t.Fatalf("repeat binned job missed the model cache")
	}
	if again.Best.TrainMode != "binned" {
		t.Fatalf("repeat binned job reports mode %q, want binned", again.Best.TrainMode)
	}
	if x.TrainFallbacks() != 0 {
		t.Fatalf("train fallbacks = %d, want 0", x.TrainFallbacks())
	}
}

// TestBinnedTrainingUnsupportedFamily asks for binned training on svm,
// which has no tree growth to bin: the variant trains exact and reports
// the unsupported fallback.
func TestBinnedTrainingUnsupportedFamily(t *testing.T) {
	x := NewLocalExecutor(LocalExecutorOptions{})
	e := newTestEngine(t, Options{Workers: 1, Executor: x})
	defer e.Close()

	d := testDataset(200, rand.New(rand.NewSource(25)))
	_, res := runJob(t, e, Request{Dataset: d, L: 1000, Seed: 26, Metamodels: []string{"svm"}, TrainMode: "binned"})
	best := res.Best
	if best.TrainMode != "exact" || best.TrainFallbackReason != "unsupported" {
		t.Fatalf("svm binned resolution = (%q, %q), want (exact, unsupported)",
			best.TrainMode, best.TrainFallbackReason)
	}
	if x.TrainFallbacks() != 1 {
		t.Fatalf("train fallbacks = %d, want 1", x.TrainFallbacks())
	}
}

// TestTrainModeValidate pins the request validation of the train-mode
// switch.
func TestTrainModeValidate(t *testing.T) {
	base := Request{Function: "morris"}
	ok := base
	ok.TrainMode = "binned"
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid binned request rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Request){
		"unknown mode": func(r *Request) { r.TrainMode = "histogram" },
	} {
		r := base
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, r)
		}
	}
}

// TestBinnedJobDeterministicAcrossGOMAXPROCS: a job is a pure function
// of its request at any core count — the model cache, the label cache
// and checkpoint resume all rely on it. Binned rf training once broke it
// by carrying a worker's feature-sampling state from tree to tree.
func TestBinnedJobDeterministicAcrossGOMAXPROCS(t *testing.T) {
	req := Request{Dataset: testDataset(300, rand.New(rand.NewSource(31))), L: 2000, Seed: 32, TrainMode: "binned"}
	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := NewLocalExecutor(LocalExecutorOptions{}).Execute(context.Background(), req, nil)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if res.Best.TrainMode != "binned" {
			t.Fatalf("GOMAXPROCS=%d: train mode %q (fallback %q), want binned", procs, res.Best.TrainMode, res.Best.TrainFallbackReason)
		}
		return resultOutcome(t, res)
	}
	if one, four := run(1), run(4); one != four {
		t.Fatalf("binned job differs between GOMAXPROCS 1 and 4:\n1: %.300s\n4: %.300s", one, four)
	}
}
