// Package daemon is the process scaffolding that cmd/redsserver and
// cmd/redsgateway share: the flags both define with the same meaning,
// the logger, fault arming, the telemetry registry, the admission
// controller with its SIGHUP token reload, the job store and engine,
// the HTTP and debug servers, and the signal-driven drain and shutdown.
// Each binary adds its own flags, its executor, its routes and what its
// shutdown drains.
package daemon

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"github.com/reds-go/reds/internal/admission"
	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/engine/store"
	"github.com/reds-go/reds/internal/faultinject"
	"github.com/reds-go/reds/internal/telemetry"
)

// HTTP server timeouts: generous enough for a paper-scale inline-CSV
// upload or a slow scrape, small enough that stuck clients cannot pin
// connections forever. Job execution is asynchronous (submission
// returns immediately), so no API response takes anywhere near these.
const (
	httpReadHeaderTimeout = 10 * time.Second
	httpReadTimeout       = 2 * time.Minute
	httpWriteTimeout      = 2 * time.Minute
	httpIdleTimeout       = 5 * time.Minute
	// shutdownTimeout bounds how long closing the listeners waits for
	// in-flight requests to finish.
	shutdownTimeout = 10 * time.Second
)

// Config holds the values of the shared flags once flag.Parse has run.
type Config struct {
	addr, debugAddr                  string
	queue                            int
	storeDir                         string
	storeTTL, storeSweep, storeFsync time.Duration
	drainTimeout                     time.Duration
	internalSecret, authTokens       string
	faults, logLevel, logFormat      string
	admission                        admission.Options
}

// RegisterFlags defines the shared flags on the command line, -addr and
// -queue with the binary's own defaults.
func RegisterFlags(addr string, queue int) *Config {
	c := new(Config)
	flag.StringVar(&c.addr, "addr", addr, "listen address")
	flag.IntVar(&c.queue, "queue", queue, "max pending jobs before submissions are rejected")
	flag.StringVar(&c.storeDir, "store.dir", "", "directory for the durable job store (empty: in-memory only)")
	flag.DurationVar(&c.storeTTL, "store.ttl", 0, "retention of finished jobs before garbage collection (0: keep forever)")
	flag.DurationVar(&c.storeSweep, "store.sweep-interval", time.Minute, "how often the TTL sweeper runs")
	flag.DurationVar(&c.storeFsync, "store.fsync-interval", 0, "batching window for job-store fsyncs (0: fsync every append)")
	flag.DurationVar(&c.drainTimeout, "drain.timeout", 10*time.Second, "how long shutdown waits for running jobs and executions to finish before canceling them")
	flag.StringVar(&c.internalSecret, "internal.secret", "", "shared secret of the internal API: required on its calls, and sent by a gateway to its workers (also read from REDS_INTERNAL_SECRET); empty: no secret")
	flag.StringVar(&c.authTokens, "auth.tokens", "", "path to the bearer-token JSON file enabling authentication (hot-reloaded on SIGHUP); empty: no auth")
	flag.Float64Var(&c.admission.RPS, "quota.rps", 0, "per-client job-submission rate limit in requests/second (0: unlimited; token-file entries may override)")
	flag.IntVar(&c.admission.Burst, "quota.burst", 0, "per-client submission burst on top of -quota.rps (min 1 when rate limiting)")
	flag.IntVar(&c.admission.MaxInFlight, "quota.inflight", 0, "max unfinished jobs one client may have at once (0: unlimited)")
	flag.IntVar(&c.admission.Caps.MaxL, "caps.max-l", 0, "max Monte Carlo label budget l one job may request (0: unlimited)")
	flag.IntVar(&c.admission.Caps.MaxN, "caps.max-n", 0, "max design size n / inline dataset rows one job may submit (0: unlimited)")
	flag.IntVar(&c.admission.Caps.MaxVariants, "caps.max-variants", 0, "max metamodel variant-grid size one job may request (0: unlimited)")
	flag.Int64Var(&c.admission.Caps.MaxBodyBytes, "caps.max-body-bytes", 64<<20, "max POST /v1/jobs request body size in bytes (0: unlimited)")
	flag.DurationVar(&c.admission.Caps.MaxRuntime, "job.max-runtime", 0, "hard wall-clock ceiling on any job's execution, and the ceiling on deadline_seconds requests (0: none)")
	flag.StringVar(&c.faults, "faults", "", "arm fault-injection points, e.g. exec.start.delay=200ms,store.wal.torn=1 (testing only; also read from REDS_FAULTS)")
	flag.StringVar(&c.logLevel, "log.level", "info", "minimum log level: debug, info, warn, error")
	flag.StringVar(&c.logFormat, "log.format", "json", "log output format: json or text")
	flag.StringVar(&c.debugAddr, "debug.addr", "", "listen address for the debug server (pprof + metrics); empty: disabled")
	return c
}

// Daemon is one started redsserver or redsgateway process.
type Daemon struct {
	// Log is the process logger; its lines carry the service name.
	Log *slog.Logger
	// Metrics is the process's one registry: every component records
	// here, and /metrics serves it.
	Metrics *telemetry.Registry
	// Admission is the controller the shared flags configure.
	Admission *admission.Controller
	// InternalSecret is -internal.secret, else REDS_INTERNAL_SECRET.
	InternalSecret string

	cfg   *Config
	debug *http.Server
}

// Start sets up the process from the parsed flags: the logger, the
// fault points of -faults (else REDS_FAULTS), the registry, and the
// admission controller, whose token file SIGHUP reloads. It exits the
// process on a bad flag.
func Start(service string, cfg *Config) *Daemon {
	logger, err := telemetry.NewLogger(os.Stderr, cfg.logLevel, cfg.logFormat)
	if err != nil {
		slog.Error(service+": bad logging flags", "error", err)
		os.Exit(1)
	}
	logger = logger.With("service", service)
	slog.SetDefault(logger)
	d := &Daemon{
		Log:            logger,
		Metrics:        telemetry.NewRegistry(),
		InternalSecret: firstNonEmpty(cfg.internalSecret, os.Getenv("REDS_INTERNAL_SECRET")),
		cfg:            cfg,
	}
	if spec := firstNonEmpty(cfg.faults, os.Getenv("REDS_FAULTS")); spec != "" {
		if err := faultinject.Arm(spec); err != nil {
			d.Fatal("bad -faults spec", err)
		}
		logger.Warn("fault injection armed", "spec", spec)
	}
	opts := cfg.admission
	opts.InternalSecret = d.InternalSecret
	opts.Metrics = d.Metrics
	if d.Admission, err = buildAdmission(opts, cfg.authTokens, logger); err != nil {
		d.Fatal("loading -auth.tokens failed", err)
	}
	reloadOnSIGHUP(d.Admission, logger)
	return d
}

// Fatal logs msg with err and exits the process.
func (d *Daemon) Fatal(msg string, err error) {
	d.Log.Error(msg, "error", err)
	os.Exit(1)
}

// Engine opens the job store of -store.dir (in memory when empty) and
// starts an engine over exec that runs workers jobs at once. It exits
// the process on failure.
func (d *Daemon) Engine(workers int, exec engine.Executor) *engine.Engine {
	var st store.Store
	if d.cfg.storeDir != "" {
		fs, err := store.OpenFS(d.cfg.storeDir, store.FSOptions{FsyncInterval: d.cfg.storeFsync, Metrics: d.Metrics})
		if err != nil {
			d.Fatal("opening job store failed", err)
		}
		if n := fs.Skipped(); n > 0 {
			d.Log.Warn("job store replay skipped corrupt lines", "skipped", n, "dir", d.cfg.storeDir)
		}
		st = fs
	}
	eng, err := engine.New(engine.Options{
		Workers:       workers,
		QueueSize:     d.cfg.queue,
		Executor:      exec,
		Store:         st,
		TTL:           d.cfg.storeTTL,
		SweepInterval: d.cfg.storeSweep,
		Metrics:       d.Metrics,
		Logger:        d.Log,
	})
	if err != nil {
		d.Fatal("starting engine failed", err)
	}
	if rec := eng.Recovery(); rec.Recovered > 0 {
		d.Log.Info("recovered jobs from store", "dir", d.cfg.storeDir,
			"recovered", rec.Recovered, "reenqueued", rec.Reenqueued, "orphaned", rec.Orphaned)
	}
	return eng
}

// Serve serves handler on -addr, behind the admission middleware and
// the request instrumentation, and the debug handler on -debug.addr,
// until SIGINT or SIGTERM. It then shuts down as serve orders it: job
// submissions are refused, and drain, when non-nil, runs while the
// listener still serves; after the listeners close, eng drains within
// -drain.timeout and closes, and closers run. It exits the process if
// the listener fails.
func (d *Daemon) Serve(handler http.Handler, eng *engine.Engine, drain func(time.Duration) bool, closers ...func()) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if d.cfg.debugAddr != "" {
		d.debug = &http.Server{
			Addr:              d.cfg.debugAddr,
			Handler:           telemetry.DebugHandler(d.Metrics),
			ReadHeaderTimeout: httpReadHeaderTimeout,
			ReadTimeout:       httpReadTimeout,
			// No WriteTimeout: pprof profile streams (?seconds=N) may
			// legitimately run long.
			IdleTimeout: httpIdleTimeout,
		}
		go func() {
			d.Log.Info("debug server listening", "addr", d.cfg.debugAddr)
			if err := d.debug.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				d.Log.Error("debug server failed", "error", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", d.cfg.addr)
	if err != nil {
		d.Fatal("server failed", err)
	}
	d.Log.Info("listening", "addr", d.cfg.addr)
	err = d.serve(ctx, ln, handler, drain, func() {
		// Running jobs get -drain.timeout to finish; dequeued ones stay
		// pending in the store for the next process.
		if !eng.Drain(d.cfg.drainTimeout) {
			d.Log.Warn("drain timeout: canceling remaining jobs")
		}
		eng.Close()
		for _, c := range closers {
			c()
		}
	})
	if err != nil {
		d.Fatal("server failed", err)
	}
}

// serve serves handler on ln until ctx is done, then shuts down in
// order. From then on a job submission and a health check get 503 (see
// refuseWhileDraining). drain, when non-nil, runs first, bounded by
// -drain.timeout, while ln still accepts connections: a worker's
// executions end and their gateways collect the results over the open
// listener, where a closed one would make each gateway run the
// finished work again elsewhere. Then the server and the debug server
// close, letting in-flight requests finish, and teardown runs. serve
// returns the server's error if it failed before ctx was done.
//
// Once the listener is closed, serve also closes every connection that
// has not sent a request yet. Shutdown would count each one as active
// until it is 5 s old, and a client transport that dialed a spare
// connection it never used would hold the exit that long.
func (d *Daemon) serve(ctx context.Context, ln net.Listener, handler http.Handler, drain func(time.Duration) bool, teardown func()) error {
	var mu sync.Mutex
	unused := map[net.Conn]bool{} // connections in http.StateNew
	// Admission sits inside Instrument so rejected requests still get
	// request IDs and access-log lines.
	srv := &http.Server{
		Handler:           telemetry.Instrument(d.Admission.Middleware(refuseWhileDraining(ctx, handler)), d.Metrics, d.Log),
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
		ConnState: func(c net.Conn, state http.ConnState) {
			mu.Lock()
			defer mu.Unlock()
			if state == http.StateNew {
				unused[c] = true
			} else {
				delete(unused, c)
			}
		},
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	d.Log.Info("shutting down", "drain_timeout", d.cfg.drainTimeout.String())
	if drain != nil && !drain(d.cfg.drainTimeout) {
		d.Log.Warn("drain timeout: canceling remaining remote executions")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	shut := make(chan struct{})
	go func() {
		_ = srv.Shutdown(shutdownCtx)
		close(shut)
	}()
	// Serve returns once Shutdown has closed the listener, and it
	// reports every connection it accepted as new before that, so no
	// unused connection can appear after this sweep.
	err := <-served
	mu.Lock()
	for c := range unused {
		_ = c.Close()
	}
	mu.Unlock()
	<-shut
	if d.debug != nil {
		_ = d.debug.Shutdown(shutdownCtx)
	}
	teardown()
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// refuseWhileDraining answers POST /v1/jobs and the health checks
// /v1/healthz and /v1/readyz with 503 shutting_down and Retry-After
// once ctx is done. A draining worker keeps its listener open for its
// gateways, but a job it accepted then would only be canceled at the
// end of the drain, so its client is sent to retry elsewhere, as a
// closed listener would. Its failing health checks take it out of its
// gateways' rotation and out of a load balancer's. Every other route
// still answers.
func refuseWhileDraining(ctx context.Context, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ctx.Err() != nil {
			switch {
			case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
				admission.WriteEnvelope(w, http.StatusServiceUnavailable, "shutting_down",
					"the server is shutting down; submit the job elsewhere or after its restart", time.Second)
				return
			case r.URL.Path == "/v1/healthz" || r.URL.Path == "/v1/readyz":
				admission.WriteEnvelope(w, http.StatusServiceUnavailable, "shutting_down",
					"the server is shutting down", time.Second)
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// buildAdmission assembles the admission controller: token store (when
// -auth.tokens is set), quotas, caps and the internal secret.
func buildAdmission(opts admission.Options, tokensPath string, logger *slog.Logger) (*admission.Controller, error) {
	if tokensPath != "" {
		tokens, err := admission.LoadTokens(tokensPath)
		if err != nil {
			return nil, err
		}
		opts.Tokens = tokens
		logger.Info("bearer-token authentication enabled", "path", tokensPath, "tokens", tokens.Len())
	}
	opts.Logger = logger
	return admission.New(opts), nil
}

// reloadOnSIGHUP re-reads the token file whenever the process receives
// SIGHUP, so operators rotate tokens without a restart. A bad file
// keeps the previous table (and logs the parse error).
func reloadOnSIGHUP(ctrl *admission.Controller, logger *slog.Logger) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	go func() {
		for range ch {
			if err := ctrl.ReloadTokens(); err != nil {
				logger.Error("token reload failed; keeping the previous table", "error", err)
				continue
			}
			logger.Info("token file reloaded")
		}
	}()
}

// firstNonEmpty returns the first non-empty string, so a flag wins over
// its environment variable.
func firstNonEmpty(vals ...string) string {
	for _, v := range vals {
		if v != "" {
			return v
		}
	}
	return ""
}
