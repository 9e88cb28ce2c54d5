package engine

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/ruleset"
)

// noisyTestDataset flips a quarter of testDataset's crisp labels, so a
// single tree overfits noise and disagrees with the full ensemble —
// the fixture that makes a forced one-rule distillation measurably
// low-fidelity (see ruleset.TestForcedLowFidelity for the pinning).
func noisyTestDataset(n int, rng *rand.Rand) *dataset.Dataset {
	d := testDataset(n, rng)
	y := append([]float64(nil), d.Y...)
	for i := range y {
		if rng.Float64() < 0.25 {
			y[i] = 1 - y[i]
		}
	}
	return dataset.MustNew(d.X, y)
}

// runJob submits a request and returns the finished result, failing the
// test on any non-done terminal state.
func runJob(t *testing.T, e *Engine, req Request) (JobID, *Result) {
	t.Helper()
	id, err := e.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if snap := waitTerminal(t, e, id, 120*time.Second); snap.Status != StatusDone {
		t.Fatalf("status = %s (err %q), want done", snap.Status, snap.Error)
	}
	res, err := e.Result(id)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return id, res
}

// TestDistilledKernelEndToEnd runs a real job with the distilled
// labeling kernel through the engine and the HTTP API: the variant
// reports kernel "distilled" with its measured fidelity, the rule-set
// export decodes, /result omits the inline rules and /rules serves
// them, and a repeat job reuses the cached distillation.
func TestDistilledKernelEndToEnd(t *testing.T) {
	x := NewLocalExecutor(LocalExecutorOptions{})
	e := newTestEngine(t, Options{Workers: 1, Executor: x})
	defer e.Close()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	d := testDataset(300, rand.New(rand.NewSource(11)))
	id, res := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 12, LabelKernel: "distilled"})

	best := res.Best
	if best.LabelKernel != "distilled" {
		t.Fatalf("label kernel = %q (fallback %q), want distilled", best.LabelKernel, best.FallbackReason)
	}
	if best.FallbackReason != "" {
		t.Fatalf("unexpected fallback: %s", best.FallbackReason)
	}
	if best.LabelFidelity < 0.99 {
		t.Fatalf("reported fidelity %.4f below 0.99", best.LabelFidelity)
	}
	if len(best.Ruleset) == 0 {
		t.Fatalf("distilled variant carries no ruleset export")
	}
	exp, err := ruleset.DecodeExport(best.Ruleset)
	if err != nil {
		t.Fatalf("stored ruleset does not decode: %v", err)
	}
	if exp.Kind != ruleset.KindMean || exp.Dim != 3 {
		t.Fatalf("export kind/dim = %s/%d, want mean/3", exp.Kind, exp.Dim)
	}
	if rs := x.RulesetCacheStats(); rs.Misses != 1 || rs.Entries != 1 {
		t.Fatalf("ruleset cache stats = %+v, want 1 miss / 1 entry", rs)
	}

	// /result strips the inline export; /rules serves it.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + string(id) + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %d: %s", resp.StatusCode, raw)
	}
	if strings.Contains(string(raw), `"ruleset"`) {
		t.Fatalf("/result payload still inlines the ruleset export")
	}
	if !strings.Contains(string(raw), `"label_kernel": "distilled"`) {
		t.Fatalf("/result payload does not surface the label kernel:\n%s", raw)
	}
	var rules struct {
		ID          string `json:"id"`
		DatasetHash string `json:"dataset_hash"`
		Rulesets    []struct {
			Metamodel      string          `json:"metamodel"`
			LabelKernel    string          `json:"label_kernel"`
			LabelFidelity  float64         `json:"label_fidelity"`
			FallbackReason string          `json:"fallback_reason"`
			Ruleset        json.RawMessage `json:"ruleset"`
		} `json:"rulesets"`
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+string(id)+"/rules", &rules); code != http.StatusOK {
		t.Fatalf("GET rules = %d", code)
	}
	if rules.ID != string(id) || rules.DatasetHash != res.DatasetHash {
		t.Fatalf("rules envelope = %s/%s, want %s/%s", rules.ID, rules.DatasetHash, id, res.DatasetHash)
	}
	if len(rules.Rulesets) != 1 || rules.Rulesets[0].Metamodel != "rf" {
		t.Fatalf("rulesets = %+v, want one rf entry", rules.Rulesets)
	}
	served, err := ruleset.DecodeExport(rules.Rulesets[0].Ruleset)
	if err != nil {
		t.Fatalf("served ruleset does not decode: %v", err)
	}
	if served.LabelFidelity != exp.LabelFidelity {
		t.Fatalf("served export fidelity %v != stored %v", served.LabelFidelity, exp.LabelFidelity)
	}

	// A repeat job distills nothing: the rule set is cached under the
	// parent model's key.
	_, res2 := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 12, LabelKernel: "distilled"})
	if res2.Best.LabelKernel != "distilled" || !res2.Best.LabelCacheHit {
		t.Fatalf("repeat job: kernel %q, label hit %v; want distilled hit", res2.Best.LabelKernel, res2.Best.LabelCacheHit)
	}
	if rs := x.RulesetCacheStats(); rs.Misses != 1 || rs.Hits < 1 {
		t.Fatalf("repeat job ruleset cache stats = %+v, want 1 miss and at least 1 hit", rs)
	}
	if n := x.RulesetFallbacks(); n != 0 {
		t.Fatalf("fallbacks = %d, want 0", n)
	}
}

// TestDistilledFidelityFallback forces a low-fidelity distillation
// through a real job (one-rule budget against a noise-overfit forest,
// threshold 1.0) and asserts the engine labels with the full ensemble,
// says why, and counts the fallback.
func TestDistilledFidelityFallback(t *testing.T) {
	x := NewLocalExecutor(LocalExecutorOptions{})
	e := newTestEngine(t, Options{Workers: 1, Executor: x})
	defer e.Close()
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	d := noisyTestDataset(300, rand.New(rand.NewSource(21)))
	id, res := runJob(t, e, Request{
		Dataset: d, L: 2000, Seed: 22,
		LabelKernel:     "distilled",
		DistillFidelity: 1,
		DistillMaxRules: 1,
	})
	best := res.Best
	if best.LabelKernel != "full" {
		t.Fatalf("label kernel = %q, want full after fallback", best.LabelKernel)
	}
	if !strings.Contains(best.FallbackReason, "fidelity") {
		t.Fatalf("fallback reason = %q, want a fidelity explanation", best.FallbackReason)
	}
	if best.LabelFidelity >= 1 || best.LabelFidelity <= 0 {
		t.Fatalf("measured fidelity %v not in (0,1)", best.LabelFidelity)
	}
	if best.Ruleset != nil {
		t.Fatalf("fallen-back variant still carries a ruleset export")
	}
	if n := x.RulesetFallbacks(); n != 1 {
		t.Fatalf("fallbacks = %d, want 1", n)
	}
	// /rules still reports the family — with the reason instead of rules.
	var rules struct {
		Rulesets []struct {
			LabelKernel    string          `json:"label_kernel"`
			FallbackReason string          `json:"fallback_reason"`
			Ruleset        json.RawMessage `json:"ruleset"`
		} `json:"rulesets"`
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+string(id)+"/rules", &rules); code != http.StatusOK {
		t.Fatalf("GET rules = %d", code)
	}
	if len(rules.Rulesets) != 1 || rules.Rulesets[0].LabelKernel != "full" ||
		rules.Rulesets[0].FallbackReason == "" || rules.Rulesets[0].Ruleset != nil {
		t.Fatalf("rules entry = %+v, want full kernel with a reason and no rules", rules.Rulesets)
	}
}

// TestDistilledUnsupportedFamilyFallsBack: svm has no tree structure;
// a distilled request over it must label with the full model and report
// "unsupported".
func TestDistilledUnsupportedFamilyFallsBack(t *testing.T) {
	x := NewLocalExecutor(LocalExecutorOptions{})
	e := newTestEngine(t, Options{Workers: 1, Executor: x})
	defer e.Close()

	d := testDataset(300, rand.New(rand.NewSource(31)))
	_, res := runJob(t, e, Request{Dataset: d, L: 1000, Seed: 32, Metamodels: []string{"svm"}, LabelKernel: "distilled"})
	best := res.Best
	if best.LabelKernel != "full" || best.FallbackReason != "unsupported" {
		t.Fatalf("svm variant kernel/reason = %q/%q, want full/unsupported", best.LabelKernel, best.FallbackReason)
	}
	if n := x.RulesetFallbacks(); n != 1 {
		t.Fatalf("fallbacks = %d, want 1", n)
	}
}

// TestLabelCacheKeyIncludesKernel is the cache-poisoning regression:
// distilled-labeled data must never serve a full-ensemble job (or vice
// versa), because labels are keyed by the model that made them — the
// ensemble or its rule set. Back-to-back jobs differing only in the
// kernel must both miss; a repeat with the same kernel hits.
func TestLabelCacheKeyIncludesKernel(t *testing.T) {
	x := NewLocalExecutor(LocalExecutorOptions{})
	e := newTestEngine(t, Options{Workers: 1, Executor: x})
	defer e.Close()

	d := testDataset(300, rand.New(rand.NewSource(41)))
	_, full := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 42})
	if full.Best.LabelCacheHit {
		t.Fatalf("first job hit an empty label cache")
	}
	_, dist := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 42, LabelKernel: "distilled"})
	if dist.Best.LabelCacheHit {
		t.Fatalf("distilled job was served full-ensemble labels from the cache")
	}
	if dist.Best.LabelKernel != "distilled" {
		t.Fatalf("distilled job labeled with %q", dist.Best.LabelKernel)
	}
	if ls := x.LabelCacheStats(); ls.Misses != 2 {
		t.Fatalf("label cache misses = %d, want 2 (the labeling model is part of the key)", ls.Misses)
	}
	// Same kernel again: now it hits.
	_, dist2 := runJob(t, e, Request{Dataset: d, L: 2000, Seed: 42, LabelKernel: "distilled"})
	if !dist2.Best.LabelCacheHit {
		t.Fatalf("repeat distilled job missed the label cache")
	}
	if ls := x.LabelCacheStats(); ls.Misses != 2 || ls.Hits < 1 {
		t.Fatalf("label cache stats after repeat = %+v, want 2 misses and a hit", ls)
	}
}

// TestDistilledLabelsKeyedByRuleBudget: a distilled rule set is a model
// of its own, so the labels it makes are keyed by it, rule budget
// included. A one-rule job that follows an unbounded one over the same
// data and seed must label afresh, and find what it finds on a fresh
// executor.
func TestDistilledLabelsKeyedByRuleBudget(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	defer e.Close()

	d := noisyTestDataset(300, rand.New(rand.NewSource(6)))
	unbounded := Request{Dataset: d, L: 2000, Seed: 6, LabelKernel: "distilled", DistillFidelity: 0.01}
	bounded := unbounded
	bounded.DistillMaxRules = 1
	runJob(t, e, unbounded)
	_, res := runJob(t, e, bounded)
	if res.Best.LabelKernel != "distilled" {
		t.Fatalf("one-rule job labeled with %q (fallback %q), want distilled", res.Best.LabelKernel, res.Best.FallbackReason)
	}
	if res.Best.LabelCacheHit {
		t.Fatalf("one-rule job was served the unbounded rule set's labels")
	}
	fresh, err := NewLocalExecutor(LocalExecutorOptions{}).Execute(context.Background(), bounded, nil)
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if got, want := resultOutcome(t, res), resultOutcome(t, fresh); got != want {
		t.Fatalf("one-rule job differs from a fresh executor's run:\nwarm:  %.300s\nfresh: %.300s", got, want)
	}
}

// TestDistillRequestValidation pins the request-level guardrails.
func TestDistillRequestValidation(t *testing.T) {
	d := testDataset(50, rand.New(rand.NewSource(51)))
	cases := []Request{
		{Dataset: d, LabelKernel: "fast"},
		{Dataset: d, DistillFidelity: 1.5},
		{Dataset: d, DistillFidelity: -0.1},
		{Dataset: d, DistillMaxRules: -1},
	}
	for i, req := range cases {
		if err := req.Validate(); err == nil {
			t.Errorf("case %d: invalid request validated", i)
		}
	}
	ok := Request{Dataset: d, LabelKernel: "distilled", DistillFidelity: 0.95, DistillMaxRules: 64}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid distill request rejected: %v", err)
	}
}
