package engine

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/faultinject"
	"github.com/reds-go/reds/internal/telemetry"
)

// The internal execution API is the wire between a gateway's
// RemoteExecutor and a worker's LocalExecutor. It is deliberately tiny
// — execution only, no job lifecycle: the gateway owns the job (queue
// position, persistence, TTL), the worker only runs the pipeline and
// reports progress.
//
//	POST   /internal/v1/execute                  start an execution   → 202 {"id": ...}
//	GET    /internal/v1/execute/{id}             status + progress (+ result when done)
//	GET    /internal/v1/execute/{id}/checkpoint  newest resumable checkpoint
//	DELETE /internal/v1/execute/{id}             cancel and/or release the execution
//
// The API shares redsserver's listener. When the worker is started with
// -internal.secret, the admission middleware in front of the handler
// requires every internal call to carry the shared secret in the
// X-Reds-Internal-Secret header (see internal/admission), so only the
// gateway holding the secret can start executions.

// maxExecBodyBytes bounds /internal/v1/execute payloads. Larger than
// the public submit cap: a dispatched request carries the inline
// dataset plus — on failover — a checkpoint inlining up to the 32 MiB
// labeled-data budget (base64 on the wire, a third more).
const maxExecBodyBytes = 256 << 20

// execStatusResponse is the wire form of one execution's state, shared
// by the server (ExecServer) and the client (RemoteExecutor).
type execStatusResponse struct {
	ID       string   `json:"id"`
	Status   Status   `json:"status"`
	Progress Progress `json:"progress"`
	// RequestID is the trace id the execution runs under — the value of
	// the X-Request-Id header the gateway sent, or a worker-generated id
	// when the header was absent.
	RequestID string `json:"request_id,omitempty"`
	// CheckpointSeq is the sequence number of the newest resumable
	// checkpoint (0 when none). Checkpoints can carry megabytes of
	// labeled data, so the poll response only advertises the seq; the
	// gateway fetches the snapshot from /checkpoint when it advances.
	CheckpointSeq uint64 `json:"checkpoint_seq,omitempty"`
	// Result is set once Status is done; Error once it is failed.
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// ExecServerOptions tune the worker side of the internal execution API.
type ExecServerOptions struct {
	// Retention keeps finished executions around for late polls before
	// they are garbage-collected (default 5 minutes). A gateway that
	// received the terminal poll response acknowledges with DELETE and
	// frees the entry immediately; retention only covers gateways that
	// die between polls.
	Retention time.Duration
	// Metrics is the registry for the server's execution counters
	// (reds_exec_executions_total, reds_exec_active_jobs). nil gets a
	// private registry.
	Metrics *telemetry.Registry
	// Logger receives execution lifecycle logs with execution and
	// request IDs. nil uses slog.Default().
	Logger *slog.Logger
}

func (o ExecServerOptions) withDefaults() ExecServerOptions {
	if o.Retention <= 0 {
		o.Retention = 5 * time.Minute
	}
	return o
}

// ExecServer runs the worker side of the internal execution API over an
// Executor (a LocalExecutor in redsserver). Every accepted POST starts
// the execution immediately on its own goroutine — admission control is
// the gateway's job (its engine queue bounds how many executions it
// dispatches), so the worker deliberately has no second queue.
type ExecServer struct {
	exec Executor
	opts ExecServerOptions
	log  *slog.Logger
	// mStarted mirrors the started counter as a telemetry instrument;
	// active is exposed as a GaugeFunc over Executions().
	mStarted *telemetry.Counter
	// bootID makes execution ids unique per process. Without it, a
	// worker restarted between two gateway polls could reassign a plain
	// counter id to a different request and serve the wrong execution's
	// status — and eventually the wrong result — to the old poller.
	// With it, the old id 404s and the gateway re-routes.
	bootID string

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	execs   map[string]*execution
	nextID  uint64
	started int64
	active  int64
	closed  bool
}

// execution is the server-side state of one dispatched request.
type execution struct {
	id string
	// requestID is the trace id the execution runs under (immutable
	// after handleStart).
	requestID string
	cancel    context.CancelFunc

	mu         sync.Mutex
	status     Status
	progress   Progress
	result     *Result
	err        error
	finishedAt time.Time
}

// NewExecServer returns an execution server over exec. Close it to
// cancel in-flight executions and wait for them.
func NewExecServer(exec Executor, opts ExecServerOptions) *ExecServer {
	ctx, cancel := context.WithCancel(context.Background())
	nonce := make([]byte, 4)
	if _, err := rand.Read(nonce); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back
		// to the boot time, which still differs across restarts.
		binary.BigEndian.PutUint32(nonce, uint32(time.Now().UnixNano()))
	}
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &ExecServer{
		exec:   exec,
		opts:   opts,
		log:    logger,
		bootID: hex.EncodeToString(nonce),
		ctx:    ctx,
		cancel: cancel,
		execs:  make(map[string]*execution),
		mStarted: reg.Counter("reds_exec_executions_total",
			"Executions accepted over the internal execution API."),
	}
	reg.GaugeFunc("reds_exec_active_jobs",
		"Executions currently running on this worker.",
		func() float64 {
			_, active := s.Executions()
			return float64(active)
		})
	return s
}

// Executions returns how many executions were ever accepted and how
// many are running right now.
func (s *ExecServer) Executions() (started, active int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started, s.active
}

// Close cancels every in-flight execution and waits for them to stop.
func (s *ExecServer) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// Drain stops accepting new executions (POSTs get 503; the gateway
// re-routes them) and waits up to timeout for the running ones to
// finish on their own. It reports whether the server fully drained;
// either way the caller should follow up with Close, which cancels
// whatever is left.
func (s *ExecServer) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Handler returns the internal API as a standalone handler (redsserver
// mounts it through engine.WithExecutionAPI instead, sharing the public
// mux and error envelope).
func (s *ExecServer) Handler() http.Handler {
	mux := http.NewServeMux()
	s.register(mux)
	return jsonErrors(mux)
}

// register mounts the internal routes on a mux.
func (s *ExecServer) register(mux *http.ServeMux) {
	mux.HandleFunc("POST /internal/v1/execute", s.handleStart)
	mux.HandleFunc("GET /internal/v1/execute/{id}", s.handleStatus)
	mux.HandleFunc("GET /internal/v1/execute/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("DELETE /internal/v1/execute/{id}", s.handleCancel)
}

func (s *ExecServer) handleStart(w http.ResponseWriter, r *http.Request) {
	faultinject.Delay("exec.start.delay")
	if faultinject.Once("exec.start.drop") {
		panic(http.ErrAbortHandler) // drop the connection without a response
	}
	// Bound the body like the public submit route, but with headroom for
	// infrastructure payloads: a forwarded request can carry an inline
	// dataset plus a checkpoint with inlined labeled datasets.
	r.Body = http.MaxBytesReader(w, r.Body, maxExecBodyBytes)
	// The checkpoint decodes on its own: one this build cannot read (a
	// gateway of another version laid it out differently) is ignored and
	// the execution runs cold, rather than failing the job.
	var wire struct {
		Request
		Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wire); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, errBodyTooLarge,
				fmt.Errorf("execution payload exceeds the %d-byte limit", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, errBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	req := wire.Request
	if len(wire.Checkpoint) > 0 {
		if cp, err := decodeCheckpoint(bytes.NewReader(wire.Checkpoint)); err != nil {
			s.log.Warn("ignoring undecodable checkpoint", "error", err)
		} else {
			req.Checkpoint = cp
		}
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, errBadRequest, err)
		return
	}

	// Adopt the gateway's trace id so the execution's spans and log
	// lines correlate across processes; a direct caller without the
	// header gets a fresh worker-local id.
	rid := r.Header.Get(telemetry.RequestIDHeader)
	if rid == "" {
		rid = telemetry.NewRequestID()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errInternal, fmt.Errorf("execution server is shutting down"))
		return
	}
	s.sweepLocked()
	s.nextID++
	id := fmt.Sprintf("exec-%s-%06d", s.bootID, s.nextID)
	ctx, cancel := context.WithCancel(s.ctx)
	ctx = telemetry.WithRequestID(ctx, rid)
	ex := &execution{id: id, requestID: rid, cancel: cancel, status: StatusRunning}
	s.execs[id] = ex
	s.started++
	s.active++
	s.wg.Add(1)
	s.mu.Unlock()
	s.mStarted.Inc()
	s.log.Info("execution started", "execution_id", id, "request_id", rid)

	go s.run(ex, req, ctx)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

// run executes the request and records its terminal state.
func (s *ExecServer) run(ex *execution, req Request, ctx context.Context) {
	defer s.wg.Done()
	defer ex.cancel()
	result, err := s.exec.Execute(ctx, req, func(p Progress) {
		ex.mu.Lock()
		ex.progress = p
		ex.mu.Unlock()
		if faultinject.Enabled() {
			s.maybeFaultExit(p)
		}
	})

	ex.mu.Lock()
	ex.finishedAt = time.Now()
	switch {
	case ctx.Err() != nil:
		ex.status = StatusCanceled
	case err != nil:
		ex.status = StatusFailed
		ex.err = err
	default:
		ex.status = StatusDone
		ex.result = result
	}
	status := ex.status
	ex.mu.Unlock()

	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	if err != nil && status == StatusFailed {
		s.log.Warn("execution failed", "execution_id", ex.id, "request_id", ex.requestID, "error", err)
	} else {
		s.log.Info("execution finished", "execution_id", ex.id, "request_id", ex.requestID, "status", string(status))
	}
}

func (s *ExecServer) lookup(id string) (*execution, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	ex, ok := s.execs[id]
	return ex, ok
}

// sweepLocked garbage-collects finished executions past retention — the
// safety net for gateways that never sent the DELETE acknowledgement.
// Caller holds s.mu.
func (s *ExecServer) sweepLocked() {
	cutoff := time.Now().Add(-s.opts.Retention)
	for id, ex := range s.execs {
		ex.mu.Lock()
		expired := ex.status.Terminal() && !ex.finishedAt.IsZero() && ex.finishedAt.Before(cutoff)
		ex.mu.Unlock()
		if expired {
			delete(s.execs, id)
		}
	}
}

func (s *ExecServer) handleStatus(w http.ResponseWriter, r *http.Request) {
	faultinject.Delay("exec.status.delay")
	if faultinject.Once("exec.status.drop") {
		panic(http.ErrAbortHandler) // drop the connection without a response
	}
	id := r.PathValue("id")
	ex, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, errNotFound, fmt.Errorf("unknown execution %s", id))
		return
	}
	ex.mu.Lock()
	resp := execStatusResponse{ID: ex.id, Status: ex.status, Progress: ex.progress, RequestID: ex.requestID, Result: ex.result}
	resp.CheckpointSeq = ex.progress.checkpointSeq()
	if ex.err != nil {
		resp.Error = ex.err.Error()
	}
	ex.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleCheckpoint serves the newest resumable checkpoint of an
// execution. The gateway calls it when the status poll's seq advances,
// keeping the snapshot off the hot polling path.
func (s *ExecServer) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ex, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, errNotFound, fmt.Errorf("unknown execution %s", id))
		return
	}
	ex.mu.Lock()
	cp := ex.progress.Checkpoint
	ex.mu.Unlock()
	if cp == nil {
		writeError(w, http.StatusNotFound, errNotFound, fmt.Errorf("execution %s has no checkpoint yet", id))
		return
	}
	writeJSON(w, http.StatusOK, cp)
}

// maybeFaultExit implements the "exec.exit-after" fault point: once a
// span whose name starts with the armed prefix closes, the process
// exits after "exec.exit.delay" (default immediately) — simulating a
// worker crash mid-execution, after some stages already checkpointed.
// The delay gives the gateway's poller time to fetch the checkpoint,
// like a real crash that happens between polls.
func (s *ExecServer) maybeFaultExit(p Progress) {
	prefix, ok := faultinject.Value("exec.exit-after")
	if !ok || prefix == "" {
		return
	}
	for _, t := range p.Timings {
		if strings.HasPrefix(t.Stage, prefix) {
			if faultinject.Once("exec.exit-after") {
				delay := faultinject.Duration("exec.exit.delay")
				s.log.Warn("faultinject: worker exiting after stage",
					"stage", t.Stage, "delay", delay.String())
				go func() {
					time.Sleep(delay)
					os.Exit(3)
				}()
			}
			return
		}
	}
}

// handleCancel cancels a running execution; for a terminal one it acts
// as the gateway's acknowledgement and releases the entry.
func (s *ExecServer) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	ex, ok := s.execs[id]
	terminal := false
	if ok {
		ex.mu.Lock()
		terminal = ex.status.Terminal()
		if terminal {
			delete(s.execs, id)
		}
		ex.mu.Unlock()
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errNotFound, fmt.Errorf("unknown execution %s", id))
		return
	}
	ex.cancel()
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "canceled": !terminal})
}
