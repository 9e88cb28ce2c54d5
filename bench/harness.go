package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/reds-go/reds/internal/admission"
	"github.com/reds-go/reds/internal/cluster"
	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/engine/store"
	"github.com/reds-go/reds/internal/telemetry"
)

// quietLogger keeps the system's warnings and errors on stderr and drops
// its per-job and per-request info lines.
var quietLogger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))

// interval is a closed span of wall-clock time.
type interval struct{ start, end time.Time }

func (iv interval) seconds() float64 { return iv.end.Sub(iv.start).Seconds() }

// outcome is what a client observed for one job.
type outcome struct {
	res   *engine.Result
	snap  engine.Snapshot
	jobID string
	// client is the job's wall from the submit call to the decoded
	// result; submit and result are the two API calls inside it and polls
	// the status calls between them.
	client, submit, result interval
	polls                  []interval
	err                    error
}

// harness is one of the system's entry points, booted with the
// redsserver/redsgateway flag defaults.
type harness interface {
	// run submits req the way a client of this entry point does and
	// waits for its result.
	run(ctx context.Context, rid string, req engine.Request) outcome
	// executors are the LocalExecutors whose caches serve jobs.
	executors() []*engine.LocalExecutor
	// dispatcher is the gateway's dispatcher, nil without a gateway.
	dispatcher() *cluster.Dispatcher
	close()
}

func newHarness(kind harnessKind, tr *tracer) (harness, error) {
	switch kind {
	case inProcess:
		return newInProcess(tr)
	case oneServer:
		return newOneServer(tr)
	default:
		return newGateway(tr)
	}
}

// inProcessHarness calls the engine's Go API directly.
type inProcessHarness struct {
	local *engine.LocalExecutor
	eng   *engine.Engine
}

func newInProcess(tr *tracer) (*inProcessHarness, error) {
	local := engine.NewLocalExecutor(engine.LocalExecutorOptions{})
	eng, err := engine.New(engine.Options{
		Executor: tr.executor(tierEngine, local),
		Store:    tr.store(store.NewMem()),
		Logger:   quietLogger,
	})
	if err != nil {
		return nil, fmt.Errorf("in-process engine: %w", err)
	}
	return &inProcessHarness{local: local, eng: eng}, nil
}

func (h *inProcessHarness) run(ctx context.Context, rid string, req engine.Request) outcome {
	var o outcome
	done := make(chan struct{})
	o.client.start = time.Now()
	id, err := h.eng.SubmitWith(req, engine.SubmitOptions{RequestID: rid, OnDone: func() { close(done) }})
	o.submit = interval{o.client.start, time.Now()}
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.jobID = string(id)
	select {
	case <-done:
	case <-ctx.Done():
		o.err = ctx.Err()
		return o
	}
	o.result.start = time.Now()
	o.res, err = h.eng.Result(id)
	o.result.end = time.Now()
	o.client.end = o.result.end
	o.snap, _ = h.eng.Job(id)
	if err != nil {
		o.err = err
	}
	return o
}

func (h *inProcessHarness) executors() []*engine.LocalExecutor {
	return []*engine.LocalExecutor{h.local}
}
func (h *inProcessHarness) dispatcher() *cluster.Dispatcher { return nil }
func (h *inProcessHarness) close()                          { h.eng.Close() }

// apiClient is a REDS user over the /v1 HTTP API: submit, poll the job
// status every 10 ms, fetch the result.
type apiClient struct {
	base string
	hc   *http.Client
}

// pollEvery is the client's status-poll period.
const pollEvery = 10 * time.Millisecond

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, hc: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}}
}

func (c *apiClient) run(ctx context.Context, rid string, req engine.Request) outcome {
	var o outcome
	body, err := json.Marshal(req)
	if err != nil {
		o.err = fmt.Errorf("encoding request: %w", err)
		return o
	}
	o.client.start = time.Now()
	var accepted struct {
		ID string `json:"id"`
	}
	err = c.call(ctx, http.MethodPost, "/v1/jobs", rid, body, http.StatusCreated, &accepted)
	o.submit = interval{o.client.start, time.Now()}
	if err != nil {
		o.err = err
		return o
	}
	o.jobID = accepted.ID
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for !o.snap.Status.Terminal() {
		select {
		case <-ctx.Done():
			o.err = ctx.Err()
			return o
		case <-tick.C:
		}
		start := time.Now()
		if err := c.call(ctx, http.MethodGet, "/v1/jobs/"+o.jobID, rid, nil, http.StatusOK, &o.snap); err != nil {
			o.err = err
			return o
		}
		o.polls = append(o.polls, interval{start, time.Now()})
	}
	if o.snap.Status != engine.StatusDone {
		o.err = fmt.Errorf("job %s ended %s: %s", o.jobID, o.snap.Status, o.snap.Error)
		return o
	}
	o.result.start = time.Now()
	var res engine.Result
	err = c.call(ctx, http.MethodGet, "/v1/jobs/"+o.jobID+"/result", rid, nil, http.StatusOK, &res)
	o.result.end = time.Now()
	o.client.end = o.result.end
	if err != nil {
		o.err = err
		return o
	}
	o.res = &res
	return o
}

// call makes one API request and decodes a reply with the wanted status
// into out. Any other status is a failed job.
func (c *apiClient) call(ctx context.Context, method, path, rid string, body []byte, want int, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set(telemetry.RequestIDHeader, rid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	// Drain the trailing newline so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

// httpServer serves a handler on a loopback port.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &httpServer{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			quietLogger.Error("benchmark server failed", "error", err)
		}
	}()
	return s, nil
}

func (s *httpServer) close() {
	_ = s.srv.Close()
	<-s.done
}

// node is what cmd/redsserver boots at its default flags: one
// LocalExecutor shared by the node's engine and its internal execution
// API, behind the admission and telemetry middleware. wrapEngine and
// wrapExec choose which of the two executor seams the tracer times.
type node struct {
	local *engine.LocalExecutor
	eng   *engine.Engine
	es    *engine.ExecServer
	srv   *httpServer
}

func startNode(st store.Store, wrapEngine, wrapExec func(engine.Executor) engine.Executor) (*node, error) {
	reg := telemetry.NewRegistry()
	local := engine.NewLocalExecutor(engine.LocalExecutorOptions{Metrics: reg})
	eng, err := engine.New(engine.Options{
		Executor: wrapEngine(local),
		Store:    st,
		Metrics:  reg,
		Logger:   quietLogger,
	})
	if err != nil {
		return nil, fmt.Errorf("node engine: %w", err)
	}
	ctrl := admission.New(admission.Options{
		Caps:    admission.Caps{MaxBodyBytes: 64 << 20},
		Metrics: reg,
		Logger:  quietLogger,
	})
	es := engine.NewExecServer(wrapExec(local), engine.ExecServerOptions{Metrics: reg, Logger: quietLogger})
	h := engine.NewHandler(eng, engine.WithMetrics(reg), engine.WithAdmission(ctrl), engine.WithExecutionAPI(es))
	srv, err := serve(telemetry.Instrument(ctrl.Middleware(h), reg, quietLogger))
	if err != nil {
		es.Close()
		eng.Close()
		return nil, err
	}
	return &node{local: local, eng: eng, es: es, srv: srv}, nil
}

func (n *node) close() {
	n.srv.close()
	n.es.Close()
	n.eng.Close()
}

func unwrapped(x engine.Executor) engine.Executor { return x }

// oneServerHarness is a single redsserver over loopback HTTP.
type oneServerHarness struct {
	*apiClient
	node *node
}

func newOneServer(tr *tracer) (*oneServerHarness, error) {
	n, err := startNode(tr.store(store.NewMem()),
		func(x engine.Executor) engine.Executor { return tr.executor(tierEngine, x) }, unwrapped)
	if err != nil {
		return nil, err
	}
	return &oneServerHarness{apiClient: newAPIClient(n.srv.url), node: n}, nil
}

func (h *oneServerHarness) executors() []*engine.LocalExecutor {
	return []*engine.LocalExecutor{h.node.local}
}
func (h *oneServerHarness) dispatcher() *cluster.Dispatcher { return nil }
func (h *oneServerHarness) close() {
	h.hc.CloseIdleConnections()
	h.node.close()
}

// gatewayHarness is cmd/redsgateway at its default flags, with an FS job
// store in a temporary directory, in front of two workers.
type gatewayHarness struct {
	*apiClient
	workers []*node
	disp    *cluster.Dispatcher
	eng     *engine.Engine
	srv     *httpServer
	dir     string
}

// gatewayReadyTimeout bounds the wait for the first health-probe round.
const gatewayReadyTimeout = 10 * time.Second

func newGateway(tr *tracer) (_ *gatewayHarness, err error) {
	h := &gatewayHarness{}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	var urls []string
	for range 2 {
		w, err := startNode(store.NewMem(), unwrapped,
			func(x engine.Executor) engine.Executor { return tr.executor(tierWorker, x) })
		if err != nil {
			return nil, err
		}
		h.workers = append(h.workers, w)
		urls = append(urls, w.srv.url)
	}
	reg := telemetry.NewRegistry()
	h.disp, err = cluster.NewDispatcher(urls, cluster.DispatcherOptions{
		Replicas:     128,
		PollInterval: 150 * time.Millisecond,
		Client:       &http.Client{Timeout: 15 * time.Second},
		Metrics:      reg,
		Health:       cluster.HealthOptions{Interval: 2 * time.Second, Timeout: time.Second},
	})
	if err != nil {
		return nil, fmt.Errorf("dispatcher: %w", err)
	}
	if h.dir, err = os.MkdirTemp("", "reds-bench-store-"); err != nil {
		return nil, err
	}
	fs, err := store.OpenFS(h.dir, store.FSOptions{Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("gateway store: %w", err)
	}
	h.eng, err = engine.New(engine.Options{
		Workers:   2 * len(urls),
		QueueSize: 256,
		Executor:  tr.executor(tierGateway, h.disp),
		Store:     tr.store(fs),
		Metrics:   reg,
		Logger:    quietLogger,
	})
	if err != nil {
		_ = fs.Close()
		return nil, fmt.Errorf("gateway engine: %w", err)
	}
	ctrl := admission.New(admission.Options{
		Caps:    admission.Caps{MaxBodyBytes: 64 << 20},
		Metrics: reg,
		Logger:  quietLogger,
	})
	h.srv, err = serve(telemetry.Instrument(ctrl.Middleware(engine.NewHandler(h.eng, engine.WithAdmission(ctrl))), reg, quietLogger))
	if err != nil {
		return nil, err
	}
	h.apiClient = newAPIClient(h.srv.url)
	deadline := time.Now().Add(gatewayReadyTimeout)
	for !h.ready() {
		if time.Now().After(deadline) {
			return nil, errors.New("gateway: workers not probed alive in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return h, nil
}

// ready is the gateway's /v1/readyz condition with every worker alive.
func (h *gatewayHarness) ready() bool {
	if !h.disp.Ready() {
		return false
	}
	for _, st := range h.disp.Health().Snapshot() {
		if !st.Alive {
			return false
		}
	}
	return true
}

func (h *gatewayHarness) executors() []*engine.LocalExecutor {
	out := make([]*engine.LocalExecutor, len(h.workers))
	for i, w := range h.workers {
		out[i] = w.local
	}
	return out
}

func (h *gatewayHarness) dispatcher() *cluster.Dispatcher { return h.disp }

func (h *gatewayHarness) close() {
	if h.apiClient != nil {
		h.hc.CloseIdleConnections()
	}
	if h.srv != nil {
		h.srv.close()
	}
	if h.eng != nil {
		h.eng.Close()
	}
	if h.disp != nil {
		h.disp.Close()
	}
	for _, w := range h.workers {
		w.close()
	}
	if h.dir != "" {
		_ = os.RemoveAll(h.dir)
	}
}
