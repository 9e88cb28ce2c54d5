// Command redsserver serves scenario discovery over HTTP: submit jobs,
// poll their progress, fetch the discovered scenario as a JSON rule.
//
//	redsserver -addr :8080 -workers 4 -cache.bytes 268435456 \
//	    -store.dir /var/lib/reds -store.ttl 168h -store.sweep-interval 1m
//
// With -store.dir set, jobs and results are persisted to an append-only
// JSON-lines store in that directory and survive restarts: done results
// stay servable, jobs that were still queued are re-enqueued, and jobs a
// crash left running are marked failed with a restart reason. -store.ttl
// garbage-collects finished jobs after the given retention (0 keeps them
// forever). -store.fsync-interval batches the per-append fsyncs under
// high submission rates. Without -store.dir everything lives in memory,
// as before.
//
// The public API lives under /v1 (see docs/API.md for the full
// reference):
//
//	POST   /v1/jobs              {"function":"morris","n":400,"l":50000}
//	GET    /v1/jobs/{id}         status + per-stage progress + timings
//	GET    /v1/jobs/{id}/result  final box, rule, metrics, trajectory
//	GET    /v1/jobs/{id}/rules   distilled rule sets (label_kernel:"distilled" jobs)
//	DELETE /v1/jobs/{id}         cancel
//	GET    /v1/functions         registered simulation functions
//	GET    /v1/healthz           liveness + cache stats
//	GET    /metrics              Prometheus text exposition
//
// Observability (see docs/OBSERVABILITY.md): every component records
// into one telemetry registry exposed at /metrics; logs are structured
// slog lines (-log.level, -log.format) carrying job and request IDs;
// -debug.addr starts a separate listener with net/http/pprof.
//
// Admission control (see docs/API.md "Authentication & quotas"):
// -auth.tokens points at a JSON bearer-token file mapping tokens to
// client IDs with roles (hot-reloaded on SIGHUP); -quota.rps/-quota.
// burst/-quota.inflight throttle each client's submissions;
// -caps.max-* bound what one job may ask for; -job.max-runtime bounds
// every job's wall-clock execution; -internal.secret (or
// REDS_INTERNAL_SECRET) locks the internal execution API to the
// gateway holding the same secret. All of it is opt-in: without the
// flags the server behaves as before.
//
// Unless -internal.disable is set, the server also exposes the internal
// execution API under /internal/v1/execute, which lets a redsgateway
// dispatch jobs onto this process as a cluster worker (see
// docs/ARCHITECTURE.md "Sharding & cluster topology").
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
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
	httpReadTimeout  = 2 * time.Minute
	httpWriteTimeout = 2 * time.Minute
	httpIdleTimeout  = 5 * time.Minute
)

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

// firstNonEmpty returns the first non-empty string, so the -faults flag
// wins over the REDS_FAULTS environment variable.
func firstNonEmpty(vals ...string) string {
	for _, v := range vals {
		if v != "" {
			return v
		}
	}
	return ""
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs (default GOMAXPROCS/2)")
	queue := flag.Int("queue", 64, "max pending jobs before submissions are rejected")
	cacheBytes := flag.Int64("cache.bytes", 256<<20, "metamodel cache budget in approximate model bytes")
	cacheTTL := flag.Duration("cache.ttl", 0, "expiry of cached metamodels after training (0: never)")
	labelCacheBytes := flag.Int64("labelcache.bytes", 256<<20, "pseudo-label dataset cache budget in approximate bytes")
	labelCacheTTL := flag.Duration("labelcache.ttl", 0, "expiry of cached pseudo-labeled datasets (0: never)")
	rulesetCacheBytes := flag.Int64("rulesetcache.bytes", 64<<20, "distilled rule-set cache budget in approximate bytes")
	rulesetCacheTTL := flag.Duration("rulesetcache.ttl", 0, "expiry of cached distilled rule sets (0: never)")
	storeDir := flag.String("store.dir", "", "directory for the durable job store (empty: in-memory only)")
	storeTTL := flag.Duration("store.ttl", 0, "retention of finished jobs before garbage collection (0: keep forever)")
	storeSweep := flag.Duration("store.sweep-interval", time.Minute, "how often the TTL sweeper runs")
	storeFsync := flag.Duration("store.fsync-interval", 0, "batching window for job-store fsyncs (0: fsync every append)")
	internalOff := flag.Bool("internal.disable", false, "do not expose the internal execution API used by redsgateway")
	internalSecret := flag.String("internal.secret", "", "shared secret required on the internal execution API (also read from REDS_INTERNAL_SECRET); empty: no check")
	authTokens := flag.String("auth.tokens", "", "path to the bearer-token JSON file enabling authentication (hot-reloaded on SIGHUP); empty: no auth")
	quotaRPS := flag.Float64("quota.rps", 0, "per-client job-submission rate limit in requests/second (0: unlimited; token-file entries may override)")
	quotaBurst := flag.Int("quota.burst", 0, "per-client submission burst on top of -quota.rps (min 1 when rate limiting)")
	quotaInflight := flag.Int("quota.inflight", 0, "max unfinished jobs one client may have at once (0: unlimited)")
	capMaxL := flag.Int("caps.max-l", 0, "max Monte Carlo label budget l one job may request (0: unlimited)")
	capMaxN := flag.Int("caps.max-n", 0, "max design size n / inline dataset rows one job may submit (0: unlimited)")
	capMaxVariants := flag.Int("caps.max-variants", 0, "max metamodel variant-grid size one job may request (0: unlimited)")
	capMaxTrainBins := flag.Int("caps.max-train-bins", 0, "max train_bins one job may request (0: unlimited)")
	capMaxBody := flag.Int64("caps.max-body-bytes", 64<<20, "max POST /v1/jobs request body size in bytes (0: unlimited)")
	maxRuntime := flag.Duration("job.max-runtime", 0, "hard wall-clock ceiling on any job's execution, and the ceiling on deadline_seconds requests (0: none)")
	drainTimeout := flag.Duration("drain.timeout", 10*time.Second, "how long shutdown waits for running jobs and executions to finish before canceling them")
	faults := flag.String("faults", "", "arm fault-injection points, e.g. exec.start.delay=200ms,store.wal.torn=1 (testing only; also read from REDS_FAULTS)")
	logLevel := flag.String("log.level", "info", "minimum log level: debug, info, warn, error")
	logFormat := flag.String("log.format", "json", "log output format: json or text")
	debugAddr := flag.String("debug.addr", "", "listen address for the debug server (pprof + metrics); empty: disabled")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		slog.Error("redsserver: bad logging flags", "error", err)
		os.Exit(1)
	}
	logger = logger.With("service", "redsserver")
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	if spec := firstNonEmpty(*faults, os.Getenv("REDS_FAULTS")); spec != "" {
		if err := faultinject.Arm(spec); err != nil {
			fatal("bad -faults spec", err)
		}
		logger.Warn("fault injection armed", "spec", spec)
	}

	// One registry per process: engine, executor (and its caches), store
	// and execution server all record here, and /metrics serves it.
	reg := telemetry.NewRegistry()

	var st store.Store
	if *storeDir != "" {
		fs, err := store.OpenFS(*storeDir, store.FSOptions{FsyncInterval: *storeFsync, Metrics: reg})
		if err != nil {
			fatal("opening job store failed", err)
		}
		if n := fs.Skipped(); n > 0 {
			logger.Warn("job store replay skipped corrupt lines", "skipped", n, "dir", *storeDir)
		}
		st = fs
	}

	// One executor serves both the engine's own jobs and gateway-
	// dispatched executions, so they share the metamodel cache.
	executor := engine.NewLocalExecutor(engine.LocalExecutorOptions{
		CacheBytes:        *cacheBytes,
		CacheTTL:          *cacheTTL,
		LabelCacheBytes:   *labelCacheBytes,
		LabelCacheTTL:     *labelCacheTTL,
		RulesetCacheBytes: *rulesetCacheBytes,
		RulesetCacheTTL:   *rulesetCacheTTL,
		Metrics:           reg,
	})
	eng, err := engine.New(engine.Options{
		Workers:       *workers,
		QueueSize:     *queue,
		Executor:      executor,
		Store:         st,
		TTL:           *storeTTL,
		SweepInterval: *storeSweep,
		Metrics:       reg,
		Logger:        logger,
	})
	if err != nil {
		fatal("starting engine failed", err)
	}
	if rec := eng.Recovery(); rec.Recovered > 0 {
		logger.Info("recovered jobs from store", "dir", *storeDir,
			"recovered", rec.Recovered, "reenqueued", rec.Reenqueued, "orphaned", rec.Orphaned)
	}

	ctrl, err := buildAdmission(admission.Options{
		RPS:         *quotaRPS,
		Burst:       *quotaBurst,
		MaxInFlight: *quotaInflight,
		Caps: admission.Caps{
			MaxL:         *capMaxL,
			MaxN:         *capMaxN,
			MaxVariants:  *capMaxVariants,
			MaxTrainBins: *capMaxTrainBins,
			MaxBodyBytes: *capMaxBody,
			MaxRuntime:   *maxRuntime,
		},
		InternalSecret: firstNonEmpty(*internalSecret, os.Getenv("REDS_INTERNAL_SECRET")),
		Metrics:        reg,
	}, *authTokens, logger)
	if err != nil {
		fatal("loading -auth.tokens failed", err)
	}
	reloadOnSIGHUP(ctrl, logger)

	handlerOpts := []engine.HandlerOption{engine.WithMetrics(reg), engine.WithAdmission(ctrl)}
	var execSrv *engine.ExecServer
	if !*internalOff {
		execSrv = engine.NewExecServer(executor, engine.ExecServerOptions{Metrics: reg, Logger: logger})
		handlerOpts = append(handlerOpts, engine.WithExecutionAPI(execSrv))
	}
	// Admission sits inside Instrument so rejected requests still get
	// request IDs and access-log lines.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           telemetry.Instrument(ctrl.Middleware(engine.NewHandler(eng, handlerOpts...)), reg, logger),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       httpReadTimeout,
		WriteTimeout:      httpWriteTimeout,
		IdleTimeout:       httpIdleTimeout,
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           telemetry.DebugHandler(reg),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       httpReadTimeout,
			// No WriteTimeout: pprof profile streams (?seconds=N) may
			// legitimately run long.
			IdleTimeout: httpIdleTimeout,
		}
		go func() {
			logger.Info("debug server listening", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server failed", "error", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// ListenAndServe returns the moment Shutdown is *called*, so main
	// must block on this channel until draining and engine teardown
	// actually finish.
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logger.Info("shutting down", "drain_timeout", drainTimeout.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		if debugSrv != nil {
			_ = debugSrv.Shutdown(shutdownCtx)
		}
		// Graceful drain before teardown: let running work finish inside
		// the budget, then cancel whatever is left. Gateway-dispatched
		// executions drain first (their checkpoints keep streaming to the
		// gateway until the end), then the engine's own jobs.
		if execSrv != nil {
			if !execSrv.Drain(*drainTimeout) {
				logger.Warn("drain timeout: canceling remaining remote executions")
			}
		}
		if !eng.Drain(*drainTimeout) {
			logger.Warn("drain timeout: canceling remaining jobs")
		}
		if execSrv != nil {
			execSrv.Close()
		}
		eng.Close()
	}()

	logger.Info("listening", "addr", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("server failed", err)
	}
	<-shutdownDone
}
