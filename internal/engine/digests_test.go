package engine

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/engine/store"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/result_digests.golden from this run")

const digestsGolden = "testdata/result_digests.golden"

// digestRequests is the fixed request list whose results are pinned by
// digestsGolden: each metamodel family and SD algorithm, probability
// labels, tuning, the binned and distilled fast paths with their
// fallbacks, and two tuned rf jobs whose results depend on the tuning
// grid's candidate seeds.
var digestRequests = []struct {
	name string
	req  Request
}{
	{"rf-prim-bumping-bi", Request{Function: "borehole", N: 200, L: 1500, Metamodels: []string{"rf"}, SD: []string{"prim", "bumping", "bi"}, Seed: 3}},
	{"xgb-svm-prim", Request{Function: "borehole", N: 200, L: 1500, Metamodels: []string{"xgb", "svm"}, Seed: 4}},
	{"prob-labels", Request{Function: "morris", N: 200, L: 1500, ProbLabels: true, Seed: 5}},
	{"tuned-rf-xgb-svm", Request{Function: "borehole", N: 200, L: 1500, Metamodels: []string{"rf", "xgb", "svm"}, Tuned: true, Seed: 6}},
	{"tuned-binned-xgb", Request{Function: "borehole", N: 200, L: 1500, Metamodels: []string{"xgb"}, Tuned: true, TrainMode: "binned", Seed: 7}},
	{"binned-svm-fallback", Request{Function: "borehole", N: 200, L: 1500, Metamodels: []string{"rf", "svm"}, TrainMode: "binned", Seed: 8}},
	{"distilled", Request{Function: "borehole", N: 200, L: 1500, LabelKernel: "distilled", Seed: 9}},
	{"distilled-max-rules", Request{Function: "borehole", N: 200, L: 1500, Metamodels: []string{"xgb"}, LabelKernel: "distilled", DistillFidelity: 0.5, DistillMaxRules: 2, Seed: 10}},
	{"tuned-rf-wingweight", Request{Function: "wingweight", N: 400, L: 2000, Tuned: true, Seed: 1}},
	{"tuned-binned-rf-wingweight", Request{Function: "wingweight", N: 400, L: 2000, Tuned: true, TrainMode: "binned", Seed: 1}},
}

// TestResultDigestsGolden runs every request of digestRequests on five
// routes and compares the SHA-256 of each normalized result
// (resultOutcome: timing, cache hits and resumed zeroed; rules and
// rule-set exports kept) with the committed golden file:
//
//   - on a fresh LocalExecutor each;
//   - on a fresh LocalExecutor resumed from each checkpoint the first
//     route's execution published, none of which holds every variant
//     (the last variant publishes no snapshot), from the one taken
//     right after a family's training on: a re-run variant whose family's
//     model the checkpoint carries decodes it instead of training, and
//     every family of every request is decoded at least once;
//   - through a RemoteExecutor over one worker's internal execution API;
//   - submitted together to an Engine over a Mem store, the
//     benchmark's in-process route;
//   - submitted together to a durable Engine over an FS store, and read
//     back by a new Engine over the same directory, which decodes each
//     stored payload on first access.
//
// A change that moves any job result on any route fails here; an
// intended one is recorded with
//
//	go test ./internal/engine/ -run TestResultDigestsGolden -update
//
// (from the LocalExecutor route) and shows as a reviewed diff of the
// golden file.
func TestResultDigestsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which legally
		// changes float results in the last bit.
		t.Skipf("result digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	results, checkpoints := localResults(t)
	local := digestLines(t, results)
	if *updateDigests {
		if err := os.WriteFile(digestsGolden, []byte(local), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	srv, _ := newTestWorker(t)
	remote := digestLines(t, executorResults(t, func() Executor { return &RemoteExecutor{BaseURL: srv.URL} }))
	e := newTestEngine(t, Options{Store: store.NewMem()})
	defer e.Close()
	mem := digestLines(t, engineResults(t, e, submitDigestRequests(t, e)))
	stored := digestLines(t, storedEngineResults(t))
	for _, route := range []struct{ name, got string }{
		{"LocalExecutor", local}, {"RemoteExecutor", remote}, {"Engine over Mem", mem}, {"Engine over FS", stored},
	} {
		if route.got != string(want) {
			t.Errorf("%s job results differ from %s\ngot:\n%swant:\n%s", route.name, digestsGolden, route.got, want)
		}
	}
	wantLines := strings.SplitAfter(string(want), "\n")
	for i, c := range digestRequests {
		if len(checkpoints[i]) == 0 {
			t.Errorf("%s: the execution published no checkpoint", c.name)
		}
		decoded := map[string]bool{}
		for _, cp := range checkpoints[i] {
			if len(cp.Variants) >= len(results[i].Variants) {
				t.Errorf("%s: checkpoint %d holds all %d variants; the last variant should publish none", c.name, cp.Seq, len(cp.Variants))
			}
			req := c.req
			req.Checkpoint = cp
			var spans []StageTiming
			res, err := NewLocalExecutor(LocalExecutorOptions{}).Execute(context.Background(), req, func(p Progress) { spans = p.Timings })
			if err != nil {
				t.Fatalf("%s resumed from checkpoint %d: %v", c.name, cp.Seq, err)
			}
			if got := digestLine(t, c.name, res); i >= len(wantLines) || got != wantLines[i] {
				t.Errorf("%s resumed from checkpoint %d: got %q, want the golden line", c.name, cp.Seq, got)
			}
			for _, ts := range spans[len(cp.Timings):] {
				if fam, ok := strings.CutPrefix(ts.Stage, "train/"); ok && len(cp.Models[fam].Data) > 0 {
					t.Errorf("%s resumed from checkpoint %d trained %s, whose model it carries", c.name, cp.Seq, fam)
				}
			}
			for _, v := range buildVariants(c.req) {
				if len(cp.Models[v.metamodel].Data) > 0 && !slices.ContainsFunc(cp.Variants, func(vr VariantResult) bool {
					return vr.Metamodel == v.metamodel && vr.SD == v.sd
				}) {
					decoded[v.metamodel] = true
				}
			}
		}
		for _, v := range buildVariants(c.req) {
			if !decoded[v.metamodel] {
				t.Errorf("%s: no resume decoded the %s model", c.name, v.metamodel)
			}
		}
	}
}

// localResults runs every request of digestRequests on a fresh
// LocalExecutor each, and returns with the results every checkpoint
// each execution published, in order.
func localResults(t *testing.T) ([]*Result, [][]*Checkpoint) {
	t.Helper()
	results := make([]*Result, len(digestRequests))
	checkpoints := make([][]*Checkpoint, len(digestRequests))
	for i, c := range digestRequests {
		var cps []*Checkpoint
		// The sink calls back under its lock, so the appends are ordered.
		record := func(p Progress) {
			if p.Checkpoint != nil && (len(cps) == 0 || cps[len(cps)-1] != p.Checkpoint) {
				cps = append(cps, p.Checkpoint)
			}
		}
		res, err := NewLocalExecutor(LocalExecutorOptions{}).Execute(context.Background(), c.req, record)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		results[i], checkpoints[i] = res, cps
	}
	return results, checkpoints
}

// executorResults runs every request of digestRequests on the executor
// newExec returns for it.
func executorResults(t *testing.T, newExec func() Executor) []*Result {
	t.Helper()
	results := make([]*Result, len(digestRequests))
	for i, c := range digestRequests {
		res, err := newExec().Execute(context.Background(), c.req, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		results[i] = res
	}
	return results
}

// engineResults reads the results of the digestRequests jobs ids back
// from e.
func engineResults(t *testing.T, e *Engine, ids []JobID) []*Result {
	t.Helper()
	results := make([]*Result, len(ids))
	for i, id := range ids {
		res, err := e.Result(id)
		if err != nil {
			t.Fatalf("%s: %v", digestRequests[i].name, err)
		}
		results[i] = res
	}
	return results
}

// submitDigestRequests submits every request of digestRequests to e and
// waits until each is done.
func submitDigestRequests(t *testing.T, e *Engine) []JobID {
	t.Helper()
	ids := make([]JobID, len(digestRequests))
	for i, c := range digestRequests {
		id, err := e.Submit(c.req)
		if err != nil {
			t.Fatalf("%s: submit: %v", c.name, err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		if snap := waitTerminal(t, e, id, 5*time.Minute); snap.Status != StatusDone {
			t.Fatalf("%s: job finished %s: %s", digestRequests[i].name, snap.Status, snap.Error)
		}
	}
	return ids
}

// storedEngineResults submits every request of digestRequests to one
// Engine over an FS store and waits for all of them, closes it, and
// returns the results a new Engine over the same directory reads back.
func storedEngineResults(t *testing.T) []*Result {
	t.Helper()
	dir := t.TempDir()
	e := newTestEngine(t, Options{Store: openFS(t, dir)})
	defer e.Close() // closed below before the reopen; Close is idempotent
	ids := submitDigestRequests(t, e)
	e.Close()
	reopened := newTestEngine(t, Options{Store: openFS(t, dir)})
	defer reopened.Close()
	return engineResults(t, reopened, ids)
}

// digestLines lists the digests of results, one per digestRequests
// entry, in golden-file form.
func digestLines(t *testing.T, results []*Result) string {
	t.Helper()
	var b strings.Builder
	for i, res := range results {
		b.WriteString(digestLine(t, digestRequests[i].name, res))
	}
	return b.String()
}

// digestLine is the golden-file line of one named result.
func digestLine(t *testing.T, name string, res *Result) string {
	t.Helper()
	return fmt.Sprintf("%s %x\n", name, sha256.Sum256([]byte(resultOutcome(t, res))))
}
