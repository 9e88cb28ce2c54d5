package daemon

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/admission"
	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/telemetry"
)

// heldExecutor runs every execution until release is closed.
type heldExecutor struct {
	started chan struct{}
	release chan struct{}
}

func (h *heldExecutor) Execute(ctx context.Context, _ engine.Request, _ func(engine.Progress)) (*engine.Result, error) {
	h.started <- struct{}{}
	select {
	case <-h.release:
		return &engine.Result{DatasetHash: "drained"}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// gate holds back every GET sent once hold is set, until open is
// closed or wait has passed, and reports on waiting each GET it holds.
type gate struct {
	hold    atomic.Bool
	waiting chan struct{}
	open    <-chan struct{}
	wait    time.Duration
}

func (g *gate) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodGet && g.hold.Load() {
		select {
		case g.waiting <- struct{}{}:
		default:
		}
		select {
		case <-g.open:
		case <-time.After(g.wait):
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// outcome is what a RemoteExecutor's Execute returned.
type outcome struct {
	res *engine.Result
	err error
}

// worker is a redsserver in miniature: an engine and an ExecServer
// behind the shared serve loop, with one RemoteExecutor (sending
// through gate) mid-execution against it.
type worker struct {
	url      string
	eng      *engine.Engine
	exec     *heldExecutor
	gate     *gate
	stop     context.CancelFunc // the SIGTERM
	draining chan struct{}      // closed as the execution drain starts
	tornDown chan struct{}      // closed as teardown starts
	served   chan error
	got      chan outcome
}

// testDaemon is a Daemon with what serve reads, logging to logger.
func testDaemon(logger *slog.Logger) *Daemon {
	return &Daemon{
		Log:       logger,
		Metrics:   telemetry.NewRegistry(),
		Admission: admission.New(admission.Options{Logger: logger}),
		cfg:       &Config{drainTimeout: 5 * time.Second},
	}
}

func startWorker(t *testing.T) *worker {
	t.Helper()
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	w := &worker{
		exec:     &heldExecutor{started: make(chan struct{}, 1), release: make(chan struct{})},
		draining: make(chan struct{}),
		tornDown: make(chan struct{}),
		served:   make(chan error, 1),
		got:      make(chan outcome, 1),
	}
	execSrv := engine.NewExecServer(w.exec, engine.ExecServerOptions{Logger: logger})
	eng, err := engine.New(engine.Options{Workers: 1, Executor: w.exec, Logger: logger})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	w.eng = eng
	t.Cleanup(func() {
		eng.Close()
		execSrv.Close()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	w.url = "http://" + ln.Addr().String()

	ctx, stop := context.WithCancel(context.Background())
	t.Cleanup(stop)
	w.stop = stop
	go func() {
		w.served <- testDaemon(logger).serve(ctx, ln, engine.NewHandler(eng, engine.WithExecutionAPI(execSrv)),
			func(timeout time.Duration) bool {
				close(w.draining)
				return execSrv.Drain(timeout)
			},
			func() { close(w.tornDown) })
	}()

	w.gate = &gate{waiting: make(chan struct{}, 1), open: w.tornDown, wait: 300 * time.Millisecond}
	remote := &engine.RemoteExecutor{BaseURL: w.url, Client: &http.Client{Transport: w.gate}}
	go func() {
		res, err := remote.Execute(context.Background(), engine.Request{Function: "morris", N: 50}, nil)
		w.got <- outcome{res, err}
	}()
	<-w.exec.started
	return w
}

// finish releases the execution and checks that its RemoteExecutor got
// the result and that serve returned cleanly.
func (w *worker) finish(t *testing.T) {
	t.Helper()
	close(w.exec.release)
	out := <-w.got
	if out.err != nil {
		t.Fatalf("execution that ended during the drain: %v, want its result", out.err)
	}
	if out.res == nil || out.res.DatasetHash != "drained" {
		t.Fatalf("result = %+v, want the drained execution's", out.res)
	}
	if err := <-w.served; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestServeDrainsExecutionsBeforeClosingListener cancels the serve
// context while a gateway's RemoteExecutor is mid-execution, holds back
// the executor's next status GET, and only then lets the execution
// finish. The listener must stay open until that GET has collected the
// result and the DELETE has released the execution: a listener closed
// first, or as soon as the execution ends, turns finished work into
// ErrUnavailable, which a dispatcher answers by running it again on
// another worker. The GET is let go when teardown starts, so a serve
// that closes the listener too early fails here every time, and after
// wait otherwise.
func TestServeDrainsExecutionsBeforeClosingListener(t *testing.T) {
	w := startWorker(t)
	w.stop()
	<-w.draining
	w.gate.hold.Store(true)
	<-w.gate.waiting // no status GET is in flight now
	w.finish(t)
}

// TestServeRefusesSubmissionsWhileDraining: once shutdown begins, a
// job submitted to the worker whose listener the drain keeps open gets
// 503 with Retry-After and never enters the engine, while the read
// routes still answer.
func TestServeRefusesSubmissionsWhileDraining(t *testing.T) {
	w := startWorker(t)
	w.stop()
	<-w.draining

	resp, err := http.Post(w.url+"/v1/jobs", "application/json", strings.NewReader(`{"function":"morris","n":50}`))
	if err != nil {
		t.Fatalf("submit during the drain: %v", err)
	}
	var env struct {
		Error struct{ Code string } `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != "shutting_down" || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit during the drain: %d %q Retry-After %q, want 503 shutting_down with Retry-After",
			resp.StatusCode, env.Error.Code, resp.Header.Get("Retry-After"))
	}
	if n := w.eng.JobCount(); n != 0 {
		t.Fatalf("engine holds %d jobs, want the refused submission kept out", n)
	}
	resp, err = http.Get(w.url + "/v1/jobs")
	if err != nil {
		t.Fatalf("list during the drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list during the drain: %d, want 200", resp.StatusCode)
	}
	w.finish(t)
}

// TestServeFailsHealthChecksWhileDraining: a worker's health checks
// answer 200 until shutdown begins and 503 shutting_down with
// Retry-After during the drain, so its gateways' probers take it out of
// the rotation instead of sending it jobs it must refuse.
func TestServeFailsHealthChecksWhileDraining(t *testing.T) {
	w := startWorker(t)
	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(w.url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var env struct {
			Error struct{ Code string } `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
		if want == http.StatusServiceUnavailable && (env.Error.Code != "shutting_down" || resp.Header.Get("Retry-After") == "") {
			t.Fatalf("GET %s: code %q Retry-After %q, want shutting_down with Retry-After",
				path, env.Error.Code, resp.Header.Get("Retry-After"))
		}
	}
	check("/v1/healthz", http.StatusOK)
	w.stop()
	<-w.draining
	check("/v1/healthz", http.StatusServiceUnavailable)
	check("/v1/readyz", http.StatusServiceUnavailable)
	resp, err := http.Head(w.url + "/v1/healthz")
	if err != nil {
		t.Fatalf("HEAD /v1/healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HEAD /v1/healthz: %d, want 503", resp.StatusCode)
	}
	w.finish(t)
}

// readSignal closes reading when the server first reads from a
// connection it accepted, by which time the server has recorded the
// connection as new.
type readSignal struct {
	net.Listener
	reading chan struct{}
	once    sync.Once
}

func (l *readSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &signalConn{Conn: c, l: l}, nil
}

type signalConn struct {
	net.Conn
	l *readSignal
}

func (c *signalConn) Read(p []byte) (int, error) {
	c.l.once.Do(func() { close(c.l.reading) })
	return c.Conn.Read(p)
}

// TestServeClosesUnusedConnections: a connection that was accepted but
// never sent a request must not hold serve's return past the drain, as
// a client transport's unused spare connection would. net/http's
// Shutdown counts such a connection as active until it is 5 s old.
func TestServeClosesUnusedConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	sig := &readSignal{Listener: ln, reading: make(chan struct{})}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	served := make(chan error, 1)
	go func() {
		served <- testDaemon(slog.New(slog.NewTextHandler(io.Discard, nil))).serve(ctx, sig, http.NotFoundHandler(), nil, func() {})
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	<-sig.reading
	stop()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("serve has not returned 1 s after shutdown began: it waits on a connection that sent nothing")
	}
}
