package engine

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/telemetry"
)

// captureExec records the request ID each execution runs under before
// delegating — the worker-side observation point for trace propagation.
type captureExec struct {
	inner Executor

	mu  sync.Mutex
	ids []string
}

func (c *captureExec) Execute(ctx context.Context, req Request, onProgress func(Progress)) (*Result, error) {
	c.mu.Lock()
	c.ids = append(c.ids, telemetry.RequestID(ctx))
	c.mu.Unlock()
	return c.inner.Execute(ctx, req, onProgress)
}

// TestTraceAcrossGatewayAndWorker submits a traced job to a gateway-
// style engine whose executor is a RemoteExecutor and asserts that the
// same request ID reaches the worker's execution context (via the
// X-Request-Id header on POST /internal/v1/execute) and surfaces on the
// gateway's job snapshot — the end-to-end correlation contract.
func TestTraceAcrossGatewayAndWorker(t *testing.T) {
	capture := &captureExec{inner: NewLocalExecutor(LocalExecutorOptions{})}
	es := NewExecServer(capture, ExecServerOptions{})
	srv := httptest.NewServer(es.Handler())
	defer func() {
		srv.Close()
		es.Close()
	}()

	e := newTestEngine(t, Options{
		Workers:  1,
		Executor: &RemoteExecutor{BaseURL: srv.URL},
	})
	defer e.Close()

	const rid = "feedface00000001"
	d := testDataset(250, rand.New(rand.NewSource(21)))
	id, err := e.SubmitTraced(Request{Dataset: d, L: 2000, Seed: 4}, rid)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	snap := waitTerminal(t, e, id, 60*time.Second)
	if snap.Status != StatusDone {
		t.Fatalf("status = %s (err %q), want done", snap.Status, snap.Error)
	}
	if snap.RequestID != rid {
		t.Fatalf("gateway snapshot request_id = %q, want %q", snap.RequestID, rid)
	}

	capture.mu.Lock()
	ids := append([]string(nil), capture.ids...)
	capture.mu.Unlock()
	if len(ids) != 1 || ids[0] != rid {
		t.Fatalf("worker saw request ids %v, want exactly [%q]", ids, rid)
	}

	// The worker's spans travel back through the progress polls: the
	// gateway job's timings must contain worker-side pipeline stages,
	// prefixed by the engine's own queue_wait span.
	if len(snap.Timings) < 2 {
		t.Fatalf("timings = %+v, want queue_wait plus worker spans", snap.Timings)
	}
	if snap.Timings[0].Stage != "queue_wait" {
		t.Fatalf("first span = %q, want queue_wait", snap.Timings[0].Stage)
	}
	var sawTrain bool
	for _, ts := range snap.Timings[1:] {
		if strings.HasPrefix(ts.Stage, "train/") {
			sawTrain = true
		}
		if ts.Seconds < 0 {
			t.Fatalf("span %q has negative duration %v", ts.Stage, ts.Seconds)
		}
	}
	if !sawTrain {
		t.Fatalf("no train/ span crossed the process boundary: %+v", snap.Timings)
	}
}

// TestTimingsCoverElapsed checks the trace's accounting on a single-
// variant job: the stages are strictly sequential, so their spans must
// sum to (almost all of) the job's wall-clock duration and never exceed
// it by more than scheduling noise.
func TestTimingsCoverElapsed(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTestEngine(t, Options{
		Workers:  1,
		Executor: NewLocalExecutor(LocalExecutorOptions{Metrics: reg}),
		Metrics:  reg,
	})
	defer e.Close()

	d := testDataset(300, rand.New(rand.NewSource(22)))
	id, err := e.Submit(Request{Dataset: d, L: 3000, Seed: 7})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	snap := waitTerminal(t, e, id, 60*time.Second)
	if snap.Status != StatusDone {
		t.Fatalf("status = %s (err %q), want done", snap.Status, snap.Error)
	}
	res, err := e.Result(id)
	if err != nil {
		t.Fatalf("result: %v", err)
	}

	stages := make(map[string]bool)
	var sum float64
	for _, ts := range snap.Timings {
		if ts.Stage == "queue_wait" {
			continue
		}
		sum += ts.Seconds
		stages[strings.SplitN(ts.Stage, "/", 2)[0]] = true
	}
	for _, want := range []string{"train", "sample", "label", "discover"} {
		if !stages[want] {
			t.Errorf("no %s span recorded; timings = %+v", want, snap.Timings)
		}
	}
	if sum <= 0 {
		t.Fatalf("span sum = %v, want > 0", sum)
	}
	// Sequential stages cannot take longer than the job itself; allow
	// 50ms of clock/scheduling noise. They should also account for most
	// of it — the pipeline is the job.
	if sum > res.ElapsedSeconds+0.05 {
		t.Fatalf("span sum %.3fs exceeds elapsed %.3fs", sum, res.ElapsedSeconds)
	}
	if sum < res.ElapsedSeconds*0.5 {
		t.Errorf("span sum %.3fs covers under half of elapsed %.3fs — missing stages?", sum, res.ElapsedSeconds)
	}

	// The shared registry saw the same execution: lifecycle counters and
	// stage histograms recorded.
	if v, ok := reg.Value("reds_engine_jobs_finished_total", "done"); !ok || v != 1 {
		t.Errorf("finished{done} = %v/%v, want 1/true", v, ok)
	}
	if v, ok := reg.Sum("reds_exec_stage_seconds"); !ok || v == 0 {
		t.Errorf("stage histogram sum = %v/%v, want observations", v, ok)
	}
	if v, ok := reg.Value("reds_engine_queue_wait_seconds"); !ok || v != 1 {
		t.Errorf("queue wait observations = %v/%v, want 1/true", v, ok)
	}
}
