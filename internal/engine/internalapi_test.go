package engine

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestWorker spins up the worker side of the internal execution API
// over a fresh LocalExecutor.
func newTestWorker(t *testing.T) (*httptest.Server, *ExecServer) {
	t.Helper()
	es := NewExecServer(NewLocalExecutor(LocalExecutorOptions{}), ExecServerOptions{})
	srv := httptest.NewServer(es.Handler())
	t.Cleanup(func() {
		srv.Close()
		es.Close()
	})
	return srv, es
}

// normalizeResult zeroes the fields that legitimately differ between
// two runs of the same request (wall-clock time, cache temperature) so
// the rest can be compared byte-for-byte.
func normalizeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	cp := *res
	cp.ElapsedSeconds = 0
	cp.Best.CacheHit = false
	cp.Variants = append([]VariantResult(nil), res.Variants...)
	for i := range cp.Variants {
		cp.Variants[i].CacheHit = false
	}
	raw, err := json.Marshal(&cp)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return raw
}

func TestRemoteExecutorRoundTrip(t *testing.T) {
	srv, es := newTestWorker(t)
	remote := &RemoteExecutor{BaseURL: srv.URL}

	req := Request{Dataset: testDataset(250, rand.New(rand.NewSource(8))), L: 2000, Seed: 4}
	var last Progress
	res, err := remote.Execute(context.Background(), req, func(p Progress) { last = p })
	if err != nil {
		t.Fatalf("remote execute: %v", err)
	}

	// Byte-identical to the single-process path, modulo timing fields.
	local, err := NewLocalExecutor(LocalExecutorOptions{}).Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("local execute: %v", err)
	}
	got, want := normalizeResult(t, res), normalizeResult(t, local)
	if string(got) != string(want) {
		t.Fatalf("remote result differs from local:\nremote: %.200s\nlocal:  %.200s", got, want)
	}

	if last.VariantsDone != 1 || last.LabelDone != 2000 {
		t.Fatalf("final progress = %+v, want completed counters", last)
	}
	if started, active := es.Executions(); started != 1 || active != 0 {
		t.Fatalf("executions = %d started / %d active, want 1/0", started, active)
	}
}

func TestRemoteExecutorRequestErrorIsNotUnavailable(t *testing.T) {
	srv, _ := newTestWorker(t)
	remote := &RemoteExecutor{BaseURL: srv.URL}
	// Validation failure on the worker: a verdict about the request, so
	// the dispatcher must not re-route it.
	_, err := remote.Execute(context.Background(), Request{Function: "no-such-function"}, nil)
	if err == nil || errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want a plain request error", err)
	}
	if !strings.Contains(err.Error(), "no-such-function") {
		t.Fatalf("error does not carry the worker's message: %v", err)
	}
}

func TestRemoteExecutorWorkerDown(t *testing.T) {
	srv, _ := newTestWorker(t)
	srv.Close() // worker is gone before the POST
	remote := &RemoteExecutor{BaseURL: srv.URL}
	_, err := remote.Execute(context.Background(), Request{Function: "morris", L: 500}, nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestRemoteExecutorWorkerDiesMidExecution(t *testing.T) {
	srv, es := newTestWorker(t)
	remote := &RemoteExecutor{BaseURL: srv.URL}

	req := Request{Dataset: testDataset(300, rand.New(rand.NewSource(9))), L: 400000, Seed: 1}
	done := make(chan error, 1)
	go func() {
		_, err := remote.Execute(context.Background(), req, nil)
		done <- err
	}()

	// Wait until the worker accepted the execution, then kill it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if started, _ := es.Executions(); started > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never accepted the execution")
		}
		time.Sleep(2 * time.Millisecond)
	}
	srv.CloseClientConnections()
	srv.Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("err = %v, want ErrUnavailable after worker death", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("execute did not return after worker death")
	}
	es.Close() // stop the orphaned in-process pipeline
}

func TestRemoteExecutorCancellation(t *testing.T) {
	srv, es := newTestWorker(t)
	remote := &RemoteExecutor{BaseURL: srv.URL}

	ctx, cancel := context.WithCancel(context.Background())
	// L is large enough to cancel mid-labeling but small enough that the
	// pipeline's non-cancellable sections (training, sampling) stay
	// short even under -race on a loaded machine.
	req := Request{Dataset: testDataset(300, rand.New(rand.NewSource(10))), L: 400000, Seed: 1}
	done := make(chan error, 1)
	go func() {
		_, err := remote.Execute(ctx, req, nil)
		done <- err
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if started, _ := es.Executions(); started > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never accepted the execution")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Let the POST response finish so the client is in its polling loop
	// (a cancel mid-POST is a different, also-correct path: the worker
	// orphan is reclaimed by retention GC, which this test is not
	// about).
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("execute did not return after cancel")
	}
	// The DELETE propagated: the worker-side execution stops too (at
	// its next cancellation point — labeling checks every chunk, but
	// training and sampling do not, hence the generous deadline).
	deadline = time.Now().Add(120 * time.Second)
	for {
		if _, active := es.Executions(); active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker-side execution still active after remote cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestExecServerUnknownExecution(t *testing.T) {
	srv, _ := newTestWorker(t)
	remote := &RemoteExecutor{BaseURL: srv.URL}
	_, err := remote.poll(context.Background(), "exec-999999")
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("poll of unknown id: err = %v, want ErrUnavailable", err)
	}
}

func TestExecServerRetentionSweep(t *testing.T) {
	// Retention must comfortably exceed the polling cadence so the test
	// reliably observes the terminal status before the sweep fires.
	const retention = 2 * time.Second
	es := NewExecServer(NewLocalExecutor(LocalExecutorOptions{}), ExecServerOptions{Retention: retention})
	defer es.Close()
	srv := httptest.NewServer(es.Handler())
	defer srv.Close()
	remote := &RemoteExecutor{BaseURL: srv.URL}

	body, _ := json.Marshal(Request{Function: "morris", N: 60, L: 300})
	id, err := remote.start(context.Background(), body)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	// Wait for the execution to finish, without DELETE-acknowledging.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := remote.poll(context.Background(), id)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if st.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("execution never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Past retention, the entry is garbage-collected on the next sweep.
	time.Sleep(retention + 100*time.Millisecond)
	if _, err := remote.poll(context.Background(), id); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("swept execution still served: err = %v", err)
	}
}

// TestRemoteExecutorFetchesCheckpointOnlyWhileFailoverPossible runs
// against a stub worker whose first poll already reports a terminal
// status with an advanced checkpoint seq. A done execution carries its
// result and a failed one is never retried, so neither may cost a
// checkpoint fetch; a canceled one fails over, so its checkpoint must
// still be fetched and reach the caller.
func TestRemoteExecutorFetchesCheckpointOnlyWhileFailoverPossible(t *testing.T) {
	cases := []struct {
		status      Status
		wantFetches int64
	}{
		{StatusDone, 0},
		{StatusFailed, 0},
		{StatusCanceled, 1},
	}
	for _, tc := range cases {
		t.Run(string(tc.status), func(t *testing.T) {
			var fetches atomic.Int64
			mux := http.NewServeMux()
			mux.HandleFunc("POST /internal/v1/execute", func(w http.ResponseWriter, r *http.Request) {
				writeJSON(w, http.StatusAccepted, map[string]string{"id": "exec-1"})
			})
			mux.HandleFunc("GET /internal/v1/execute/{id}", func(w http.ResponseWriter, r *http.Request) {
				st := execStatusResponse{ID: "exec-1", Status: tc.status, CheckpointSeq: 4}
				switch tc.status {
				case StatusDone:
					st.Result = &Result{DatasetHash: "h"}
				case StatusFailed:
					st.Error = "boom"
				}
				writeJSON(w, http.StatusOK, st)
			})
			mux.HandleFunc("GET /internal/v1/execute/{id}/checkpoint", func(w http.ResponseWriter, r *http.Request) {
				fetches.Add(1)
				writeJSON(w, http.StatusOK, &Checkpoint{Seq: 4, Labeled: map[string]LabeledSet{"rf": {Data: []byte{1, 2, 3}}}})
			})
			mux.HandleFunc("DELETE /internal/v1/execute/{id}", func(w http.ResponseWriter, r *http.Request) {
				writeJSON(w, http.StatusOK, map[string]any{"id": "exec-1"})
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()

			remote := &RemoteExecutor{BaseURL: srv.URL}
			var seen *Checkpoint
			_, err := remote.Execute(context.Background(), Request{Function: "morris"}, func(p Progress) {
				if p.Checkpoint != nil {
					seen = p.Checkpoint
				}
			})
			if got := fetches.Load(); got != tc.wantFetches {
				t.Fatalf("%d checkpoint fetches, want %d", got, tc.wantFetches)
			}
			switch tc.status {
			case StatusDone:
				if err != nil {
					t.Fatalf("done execution: %v", err)
				}
			case StatusFailed:
				if err == nil || errors.Is(err, ErrUnavailable) {
					t.Fatalf("failed execution: err = %v, want a plain error", err)
				}
			case StatusCanceled:
				if !errors.Is(err, ErrUnavailable) {
					t.Fatalf("canceled execution: err = %v, want ErrUnavailable", err)
				}
				if seen == nil || seen.Seq != 4 || string(seen.Labeled["rf"].Data) != "\x01\x02\x03" {
					t.Fatalf("caller got checkpoint %+v, want the fetched seq-4 snapshot", seen)
				}
			}
		})
	}
}

// execFunc adapts a function to Executor.
type execFunc func(ctx context.Context, req Request, onProgress func(Progress)) (*Result, error)

func (f execFunc) Execute(ctx context.Context, req Request, onProgress func(Progress)) (*Result, error) {
	return f(ctx, req, onProgress)
}

// TestExecServerHoldsStatusUntilDone sends three status GETs at once
// right after the POST, over an execution that ends ~30ms later. The
// worker holds each GET until the execution ends, so every answer is
// the terminal status with its result, not the running snapshot of the
// moment the GET arrived.
func TestExecServerHoldsStatusUntilDone(t *testing.T) {
	es := NewExecServer(execFunc(func(context.Context, Request, func(Progress)) (*Result, error) {
		time.Sleep(30 * time.Millisecond)
		return &Result{DatasetHash: "h"}, nil
	}), ExecServerOptions{})
	srv := httptest.NewServer(es.Handler())
	defer func() {
		srv.Close()
		es.Close()
	}()
	remote := &RemoteExecutor{BaseURL: srv.URL}

	body, _ := json.Marshal(Request{Function: "morris"})
	id, err := remote.start(context.Background(), body)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	var wg sync.WaitGroup
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := remote.poll(context.Background(), id)
			if err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			if st.Status != StatusDone || st.Result == nil || st.Result.DatasetHash != "h" {
				t.Errorf("status GET answered %s with result %+v, want done with the result", st.Status, st.Result)
			}
		}()
	}
	wg.Wait()
}

// TestExecServerKeepsNewestCheckpoint: recorders publish snapshots
// after releasing their lock, so two variants finishing together can
// deliver them out of Seq order. Through one sink, Seq 2 then Seq 1:
// the progress, the status's checkpoint_seq and /checkpoint all keep 2.
func TestExecServerKeepsNewestCheckpoint(t *testing.T) {
	var last atomic.Pointer[Checkpoint]
	es := NewExecServer(execFunc(func(_ context.Context, _ Request, onProgress func(Progress)) (*Result, error) {
		sink := newProgressSink(func(p Progress) {
			last.Store(p.Checkpoint)
			onProgress(p)
		})
		sink.setCheckpoint(&Checkpoint{Seq: 2})
		sink.setCheckpoint(&Checkpoint{Seq: 1})
		return &Result{DatasetHash: "h"}, nil
	}), ExecServerOptions{})
	srv := httptest.NewServer(es.Handler())
	defer func() {
		srv.Close()
		es.Close()
	}()
	remote := &RemoteExecutor{BaseURL: srv.URL}

	body, _ := json.Marshal(Request{Function: "morris"})
	id, err := remote.start(context.Background(), body)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	st, err := remote.poll(context.Background(), id)
	if err != nil {
		t.Fatalf("poll: %v", err)
	}
	if st.Status != StatusDone {
		t.Fatalf("status %s, want done", st.Status)
	}
	if cp := last.Load(); cp == nil || cp.Seq != 2 {
		t.Errorf("progress carries checkpoint %+v, want seq 2", cp)
	}
	if st.CheckpointSeq != 2 {
		t.Errorf("checkpoint_seq = %d, want 2", st.CheckpointSeq)
	}
	cp, err := remote.fetchCheckpoint(context.Background(), id)
	if err != nil {
		t.Fatalf("fetch checkpoint: %v", err)
	}
	if cp.Seq != 2 {
		t.Errorf("/checkpoint served seq %d, want 2", cp.Seq)
	}
}

// TestRemoteExecutorPacesStatusGETs runs against a stub worker that
// answers every status GET at once with running, as a worker without
// the hold does: the executor must still send at most one status GET
// per statusHold instead of polling in a loop.
func TestRemoteExecutorPacesStatusGETs(t *testing.T) {
	var gets atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /internal/v1/execute", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, map[string]string{"id": "exec-1"})
	})
	mux.HandleFunc("GET /internal/v1/execute/{id}", func(w http.ResponseWriter, r *http.Request) {
		gets.Add(1)
		writeJSON(w, http.StatusOK, execStatusResponse{ID: "exec-1", Status: StatusRunning})
	})
	mux.HandleFunc("DELETE /internal/v1/execute/{id}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"id": "exec-1", "canceled": true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 4*statusHold+statusHold/2)
	defer cancel()
	start := time.Now()
	_, err := (&RemoteExecutor{BaseURL: srv.URL}).Execute(ctx, Request{Function: "morris"}, nil)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline", err)
	}
	// GET k is sent no sooner than k·statusHold after the first.
	if n, limit := gets.Load(), 1+int64(elapsed/statusHold); n < 2 || n > limit {
		t.Fatalf("%d status GETs in %v, want 2 to %d (one per %v)", n, elapsed, limit, statusHold)
	}
}
