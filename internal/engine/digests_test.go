package engine

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
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

// TestResultDigestsGolden runs every request of digestRequests on two
// routes, on a fresh LocalExecutor each and through a RemoteExecutor
// over one worker's internal execution API, and compares the SHA-256
// of each normalized result (resultOutcome: timing, cache hits and
// resumed zeroed; rules and rule-set exports kept) with the committed
// golden file. A change that moves any job result on either route
// fails here; an intended one is recorded with
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
	local := resultDigests(t, func() Executor { return NewLocalExecutor(LocalExecutorOptions{}) })
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
	remote := resultDigests(t, func() Executor { return &RemoteExecutor{BaseURL: srv.URL} })
	for _, route := range []struct{ name, got string }{{"LocalExecutor", local}, {"RemoteExecutor", remote}} {
		if route.got != string(want) {
			t.Errorf("%s job results differ from %s\ngot:\n%swant:\n%s", route.name, digestsGolden, route.got, want)
		}
	}
}

// resultDigests runs every request of digestRequests on the executor
// newExec returns for it and lists the digests in golden-file form.
func resultDigests(t *testing.T, newExec func() Executor) string {
	t.Helper()
	var b strings.Builder
	for _, c := range digestRequests {
		res, err := newExec().Execute(context.Background(), c.req, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s %x\n", c.name, sha256.Sum256([]byte(resultOutcome(t, res))))
	}
	return b.String()
}
