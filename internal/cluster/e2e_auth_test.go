package cluster

import (
	"strings"
	"testing"
	"time"

	"net/http/httptest"

	"github.com/reds-go/reds/internal/admission"
	"github.com/reds-go/reds/internal/engine"
)

// startSecuredWorker is startWorker behind the admission middleware with
// an internal secret: /internal/v1/execute only admits requests carrying
// the matching X-Reds-Internal-Secret header. /v1/healthz stays open, so
// the gateway's prober keeps working either way.
func startSecuredWorker(t *testing.T, secret string) *testWorker {
	t.Helper()
	local := engine.NewLocalExecutor(engine.LocalExecutorOptions{})
	eng, err := engine.New(engine.Options{Workers: 1, Executor: local})
	if err != nil {
		t.Fatalf("worker engine: %v", err)
	}
	es := engine.NewExecServer(local, engine.ExecServerOptions{})
	ctrl := admission.New(admission.Options{InternalSecret: secret})
	srv := httptest.NewServer(ctrl.Middleware(engine.NewHandler(eng, engine.WithExecutionAPI(es))))
	w := &testWorker{srv: srv, eng: eng, exec: es}
	t.Cleanup(w.stop)
	return w
}

// startGatewayWithSecret mirrors startGateway but sends the given secret
// on every dispatch (empty: none).
func startGatewayWithSecret(t *testing.T, secret string, workers ...*testWorker) (*engine.Engine, *Dispatcher) {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.srv.URL
	}
	disp, err := NewDispatcher(urls, DispatcherOptions{
		Replicas:       64,
		InternalSecret: secret,
		Health:         HealthOptions{Interval: 100 * time.Millisecond, Timeout: time.Second},
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

// TestClusterInternalSecretEndToEnd runs a job through secret-guarded
// workers with the gateway holding the matching secret: the dispatch
// must be admitted and the job complete normally.
func TestClusterInternalSecretEndToEnd(t *testing.T) {
	const secret = "cluster-hush"
	w1, w2 := startSecuredWorker(t, secret), startSecuredWorker(t, secret)
	gw, _ := startGatewayWithSecret(t, secret, w1, w2)

	id, err := gw.Submit(engine.Request{Dataset: e2eDataset(250, 1), L: 2000, Seed: 5})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	snap := waitGatewayTerminal(t, gw, id, 120*time.Second)
	if snap.Status != engine.StatusDone {
		t.Fatalf("status = %s (err %q), want done", snap.Status, snap.Error)
	}
}

// TestClusterInternalSecretMismatchFailsLoudly drops the secret on the
// gateway side: the worker refuses the dispatch with 401, and the job
// must fail with a clear misconfiguration message — not get re-routed
// around the fleet (every worker would refuse it the same way) and not
// hang.
func TestClusterInternalSecretMismatchFailsLoudly(t *testing.T) {
	w := startSecuredWorker(t, "cluster-hush")
	gw, _ := startGatewayWithSecret(t, "", w)

	id, err := gw.Submit(engine.Request{Dataset: e2eDataset(250, 1), L: 2000, Seed: 5})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	snap := waitGatewayTerminal(t, gw, id, 30*time.Second)
	if snap.Status != engine.StatusFailed {
		t.Fatalf("status = %s, want failed", snap.Status)
	}
	if !strings.Contains(snap.Error, "refused the internal secret") {
		t.Fatalf("failure reason %q does not name the secret mismatch", snap.Error)
	}
}
