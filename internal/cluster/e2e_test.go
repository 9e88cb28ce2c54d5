package cluster

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/engine"
)

// testWorker is one in-process redsserver stand-in: a LocalExecutor
// behind the internal execution API plus a real /v1 handler (the health
// prober needs /v1/healthz), served over a real TCP listener.
type testWorker struct {
	srv  *httptest.Server
	eng  *engine.Engine
	exec *engine.ExecServer
}

func startWorker(t *testing.T) *testWorker {
	t.Helper()
	local := engine.NewLocalExecutor(engine.LocalExecutorOptions{})
	eng, err := engine.New(engine.Options{Workers: 1, Executor: local})
	if err != nil {
		t.Fatalf("worker engine: %v", err)
	}
	es := engine.NewExecServer(local, engine.ExecServerOptions{})
	srv := httptest.NewServer(engine.NewHandler(eng, engine.WithExecutionAPI(es)))
	w := &testWorker{srv: srv, eng: eng, exec: es}
	t.Cleanup(w.stop)
	return w
}

// stop tears the worker down; safe to call twice (the mid-job kill test
// stops one worker itself).
func (w *testWorker) stop() {
	if w.srv != nil {
		w.srv.CloseClientConnections()
		w.srv.Close()
		w.srv = nil
		w.exec.Close()
		w.eng.Close()
	}
}

// startGateway builds the orchestration tier: an engine whose executor
// is a dispatcher over the workers' URLs.
func startGateway(t *testing.T, workers ...*testWorker) (*engine.Engine, *Dispatcher) {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.srv.URL
	}
	disp, err := NewDispatcher(urls, DispatcherOptions{
		Replicas: 64,
		Health:   HealthOptions{Interval: 100 * time.Millisecond, Timeout: time.Second},
	})
	if err != nil {
		t.Fatalf("dispatcher: %v", err)
	}
	t.Cleanup(disp.Close)
	eng, err := engine.New(engine.Options{Workers: 2, Executor: disp})
	if err != nil {
		t.Fatalf("gateway engine: %v", err)
	}
	t.Cleanup(eng.Close)
	return eng, disp
}

func e2eDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if x[i][0] < 0.4 && x[i][1] < 0.4 {
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

func waitGatewayTerminal(t *testing.T, eng *engine.Engine, id engine.JobID, timeout time.Duration) engine.Snapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		snap, ok := eng.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if snap.Status.Terminal() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, snap.Status, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// normalizeResult zeroes wall-clock and cache-temperature fields so two
// runs of one request compare byte-for-byte.
func normalizeResult(t *testing.T, res *engine.Result) string {
	t.Helper()
	cp := *res
	cp.ElapsedSeconds = 0
	cp.Best.CacheHit = false
	cp.Variants = append([]engine.VariantResult(nil), res.Variants...)
	for i := range cp.Variants {
		cp.Variants[i].CacheHit = false
	}
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(raw)
}

// TestClusterEndToEnd drives a job through gateway engine → dispatcher
// → RemoteExecutor → worker ExecServer → LocalExecutor and asserts the
// result is byte-identical to the single-process path.
func TestClusterEndToEnd(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	gw, disp := startGateway(t, w1, w2)

	req := engine.Request{Dataset: e2eDataset(250, 1), L: 2000, Seed: 5}
	id, err := gw.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	snap := waitGatewayTerminal(t, gw, id, 120*time.Second)
	if snap.Status != engine.StatusDone {
		t.Fatalf("status = %s (err %q), want done", snap.Status, snap.Error)
	}
	// Progress flowed through the whole chain back into the gateway job.
	if snap.LabelDone != 2000 || snap.VariantsDone != 1 {
		t.Fatalf("gateway snapshot missed remote progress: %+v", snap)
	}
	res, err := gw.Result(id)
	if err != nil {
		t.Fatalf("result: %v", err)
	}

	local, err := engine.NewLocalExecutor(engine.LocalExecutorOptions{}).Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("single-process execute: %v", err)
	}
	if got, want := normalizeResult(t, res), normalizeResult(t, local); got != want {
		t.Fatalf("cluster result differs from single-process:\ncluster: %.300s\nlocal:   %.300s", got, want)
	}

	// The job landed on the ring owner of its dataset hash.
	owner, _ := disp.Route(req.ShardKey())
	dispatched, _ := disp.Stats()
	if dispatched[owner] != 1 {
		t.Fatalf("dispatch counts %v, want 1 on owner %s", dispatched, owner)
	}
}

// TestClusterWorkerDeathFailover kills the owning worker mid-job and
// asserts the gateway re-routes the execution to the surviving worker
// and the job still completes.
func TestClusterWorkerDeathFailover(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	workers := map[string]*testWorker{w1.srv.URL: w1, w2.srv.URL: w2}
	gw, disp := startGateway(t, w1, w2)

	// A large pseudo-label sample keeps the job running long enough to
	// kill its worker mid-flight.
	req := engine.Request{Dataset: e2eDataset(300, 2), L: 300000, Seed: 3}
	ownerURL, _ := disp.Route(req.ShardKey())
	owner := workers[ownerURL]
	var survivorURL string
	for url := range workers {
		if url != ownerURL {
			survivorURL = url
		}
	}

	id, err := gw.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Wait until the owner is actually executing, then kill it.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if started, _ := owner.exec.Executions(); started > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner never started executing")
		}
		time.Sleep(2 * time.Millisecond)
	}
	owner.stop()

	snap := waitGatewayTerminal(t, gw, id, 180*time.Second)
	if snap.Status != engine.StatusDone {
		t.Fatalf("status after failover = %s (err %q), want done", snap.Status, snap.Error)
	}
	if _, err := gw.Result(id); err != nil {
		t.Fatalf("result after failover: %v", err)
	}
	if started, _ := workers[survivorURL].exec.Executions(); started != 1 {
		t.Fatalf("survivor executions = %d, want 1 (re-routed job)", started)
	}
	dispatched, failovers := disp.Stats()
	if failovers != 1 {
		t.Fatalf("failovers = %d, want 1", failovers)
	}
	if dispatched[ownerURL] != 1 || dispatched[survivorURL] != 1 {
		t.Fatalf("dispatch counts %v, want one attempt each", dispatched)
	}
	if disp.Health().Alive(ownerURL) {
		t.Fatalf("dead owner still marked alive")
	}
}
