// Command redsgateway is the sharding front door of a REDS cluster: it
// accepts the same /v1 job API as redsserver, but instead of running
// discovery pipelines itself it consistent-hash-routes each job to one
// of a configured set of redsserver workers, keyed by the job's dataset
// content hash — so every dataset's metamodel cache stays hot on one
// worker. Dead workers are detected by a health prober (and by failed
// executions) and their jobs re-routed to the next worker on the ring.
//
//	redsgateway -addr :8090 \
//	    -workers http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	    -store.dir /var/lib/redsgw -store.ttl 168h
//
// The gateway is an ordinary engine.Engine whose executor is a
// cluster.Dispatcher, so jobs submitted here get the full orchestration
// treatment — bounded queue, lifecycle tracking, durable store,
// TTL GC — while execution happens on the workers through their
// internal API (POST /internal/v1/execute). Each job's X-Request-Id
// travels with the dispatch, so one id greps across gateway and worker
// logs.
//
// Two endpoints aggregate across the fleet:
//
//	GET /v1/jobs     gateway jobs + each worker's own job list
//	GET /v1/healthz  gateway liveness + ring state + per-worker health
//
// Observability (see docs/OBSERVABILITY.md): /metrics serves the
// gateway's telemetry registry (engine, dispatcher, prober, store, HTTP
// series) in Prometheus text format; -log.level/-log.format control the
// structured logs; -debug.addr starts a pprof listener.
//
// Admission control mirrors redsserver (see docs/API.md "Authentication
// & quotas"): -auth.tokens, -quota.*, -caps.*, -job.max-runtime. The
// -internal.secret flag (or REDS_INTERNAL_SECRET) serves double duty:
// the gateway sends it on every dispatch and fan-out to workers started
// with the same secret, and requires it (or an admin token) on its own
// /internal/v1/workers admin API.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/reds-go/reds/internal/admission"
	"github.com/reds-go/reds/internal/cluster"
	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/engine/store"
	"github.com/reds-go/reds/internal/faultinject"
	"github.com/reds-go/reds/internal/telemetry"
)

// HTTP server timeouts: generous enough for a paper-scale inline-CSV
// upload or a slow scrape, small enough that stuck clients cannot pin
// connections forever.
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

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	workersFlag := flag.String("workers", "", "comma-separated redsserver base URLs (required), e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
	dispatch := flag.Int("dispatch", 0, "jobs dispatched concurrently (default 2 per worker)")
	queue := flag.Int("queue", 256, "max pending jobs before submissions are rejected")
	replicas := flag.Int("hash.replicas", 128, "virtual nodes per worker on the consistent-hash ring")
	healthInterval := flag.Duration("health.interval", 2*time.Second, "worker health-probe period")
	healthTimeout := flag.Duration("health.timeout", time.Second, "single health-probe timeout")
	storeDir := flag.String("store.dir", "", "directory for the durable job store (empty: in-memory only)")
	storeTTL := flag.Duration("store.ttl", 0, "retention of finished jobs before garbage collection (0: keep forever)")
	storeSweep := flag.Duration("store.sweep-interval", time.Minute, "how often the TTL sweeper runs")
	storeFsync := flag.Duration("store.fsync-interval", 0, "batching window for job-store fsyncs (0: fsync every append)")
	drainTimeout := flag.Duration("drain.timeout", 10*time.Second, "how long shutdown waits for in-flight jobs to finish before canceling them")
	internalSecret := flag.String("internal.secret", "", "shared secret sent to workers on every dispatch and required on /internal/v1/workers (also read from REDS_INTERNAL_SECRET); empty: no secret")
	authTokens := flag.String("auth.tokens", "", "path to the bearer-token JSON file enabling authentication (hot-reloaded on SIGHUP); empty: no auth")
	quotaRPS := flag.Float64("quota.rps", 0, "per-client job-submission rate limit in requests/second (0: unlimited; token-file entries may override)")
	quotaBurst := flag.Int("quota.burst", 0, "per-client submission burst on top of -quota.rps (min 1 when rate limiting)")
	quotaInflight := flag.Int("quota.inflight", 0, "max unfinished jobs one client may have at once (0: unlimited)")
	capMaxL := flag.Int("caps.max-l", 0, "max Monte Carlo label budget l one job may request (0: unlimited)")
	capMaxN := flag.Int("caps.max-n", 0, "max design size n / inline dataset rows one job may submit (0: unlimited)")
	capMaxVariants := flag.Int("caps.max-variants", 0, "max metamodel variant-grid size one job may request (0: unlimited)")
	capMaxBody := flag.Int64("caps.max-body-bytes", 64<<20, "max POST /v1/jobs request body size in bytes (0: unlimited)")
	maxRuntime := flag.Duration("job.max-runtime", 0, "hard wall-clock ceiling on any job's execution, and the ceiling on deadline_seconds requests (0: none)")
	faults := flag.String("faults", "", "arm fault-injection points, e.g. store.wal.torn=1 (testing only; also read from REDS_FAULTS)")
	logLevel := flag.String("log.level", "info", "minimum log level: debug, info, warn, error")
	logFormat := flag.String("log.format", "json", "log output format: json or text")
	debugAddr := flag.String("debug.addr", "", "listen address for the debug server (pprof + metrics); empty: disabled")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		slog.Error("redsgateway: bad logging flags", "error", err)
		os.Exit(1)
	}
	logger = logger.With("service", "redsgateway")
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	workers := splitWorkers(*workersFlag)
	if len(workers) == 0 {
		fatal("-workers is required", errors.New("comma-separated redsserver base URLs"))
	}
	if *dispatch <= 0 {
		*dispatch = 2 * len(workers)
	}

	if spec := firstNonEmpty(*faults, os.Getenv("REDS_FAULTS")); spec != "" {
		if err := faultinject.Arm(spec); err != nil {
			fatal("bad -faults spec", err)
		}
		logger.Warn("fault injection armed", "spec", spec)
	}

	// One registry per process: dispatcher, prober, engine, store and
	// the HTTP middleware all record here; /metrics serves it.
	reg := telemetry.NewRegistry()

	secret := firstNonEmpty(*internalSecret, os.Getenv("REDS_INTERNAL_SECRET"))
	client := &http.Client{Timeout: 15 * time.Second}
	disp, err := cluster.NewDispatcher(workers, cluster.DispatcherOptions{
		Replicas:       *replicas,
		Client:         client,
		Metrics:        reg,
		InternalSecret: secret,
		Health: cluster.HealthOptions{
			Interval: *healthInterval,
			Timeout:  *healthTimeout,
		},
	})
	if err != nil {
		fatal("building dispatcher failed", err)
	}

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

	eng, err := engine.New(engine.Options{
		Workers:       *dispatch,
		QueueSize:     *queue,
		Executor:      disp,
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
			MaxBodyBytes: *capMaxBody,
			MaxRuntime:   *maxRuntime,
		},
		InternalSecret: secret,
		Metrics:        reg,
	}, *authTokens, logger)
	if err != nil {
		fatal("loading -auth.tokens failed", err)
	}
	reloadOnSIGHUP(ctrl, logger)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", gatewayHealthz(eng, disp))
	mux.HandleFunc("GET /v1/readyz", gatewayReadyz(disp))
	mux.HandleFunc("GET /v1/jobs", gatewayJobs(eng, disp, client, secret))
	mux.HandleFunc("GET /internal/v1/workers", listWorkers(disp))
	mux.HandleFunc("POST /internal/v1/workers", addWorker(disp, logger))
	mux.HandleFunc("DELETE /internal/v1/workers", removeWorker(disp, logger))
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("/", engine.NewHandler(eng, engine.WithAdmission(ctrl)))

	// Admission sits inside Instrument so rejected requests still get
	// request IDs and access-log lines.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           telemetry.Instrument(ctrl.Middleware(mux), reg, logger),
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
		// Drain before teardown: jobs already dispatched to workers get
		// drain.timeout to finish (their checkpoints are persisted along
		// the way, so whatever is cut off resumes after restart).
		if !eng.Drain(*drainTimeout) {
			logger.Warn("drain timeout: canceling remaining jobs")
		}
		eng.Close()
		disp.Close()
	}()

	logger.Info("listening", "addr", *addr, "workers", strings.Join(workers, ", "))
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("server failed", err)
	}
	<-shutdownDone
}

// splitWorkers parses the -workers flag, trimming blanks and trailing
// slashes so the same worker written two ways cannot land on the ring
// twice.
func splitWorkers(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		w = strings.TrimRight(strings.TrimSpace(w), "/")
		if w != "" {
			out = append(out, w)
		}
	}
	return out
}

// gatewayHealthz reports the gateway's own state plus the ring and every
// worker's health (with its last healthz payload, fetched live). ok is
// true while at least one worker is alive — a gateway with no workers
// left cannot make progress. The dispatched/failovers fields read the
// same telemetry counters /metrics exposes.
func gatewayHealthz(eng *engine.Engine, disp *cluster.Dispatcher) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		statuses := disp.Health().Snapshot()
		anyAlive := false
		for _, st := range statuses {
			if st.Alive {
				anyAlive = true
			}
		}
		dispatched, failovers := disp.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"ok":         anyAlive,
			"role":       "gateway",
			"jobs":       eng.JobCount(),
			"workers":    statuses,
			"dispatched": dispatched,
			"failovers":  failovers,
			"ready":      disp.Ready(),
			"ring": map[string]any{
				"workers": disp.Ring().Len(),
				"changes": disp.Ring().Mutations(),
			},
		})
	}
}

// gatewayReadyz is the readiness gate: 503 until the first health-probe
// round has completed AND at least one worker on the ring is alive, 200
// afterwards. Liveness (/v1/healthz) answers ok the moment the process
// is up; readiness only once observed worker health says jobs can
// actually run — load balancers and smoke tests should gate on this.
func gatewayReadyz(disp *cluster.Dispatcher) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		probed := disp.Ready()
		anyAlive := false
		for _, st := range disp.Health().Snapshot() {
			if st.Alive {
				anyAlive = true
				break
			}
		}
		ready := probed && anyAlive
		status := http.StatusOK
		if !ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{
			"ready":         ready,
			"probed":        probed,
			"alive_workers": anyAlive,
		})
	}
}

// workerRequest is the body of worker-admin calls.
type workerRequest struct {
	URL string `json:"url"`
}

// listWorkers reports the registered workers with their health.
func listWorkers(disp *cluster.Dispatcher) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"workers": disp.Health().Snapshot(),
			"ring": map[string]any{
				"workers": disp.Ring().Len(),
				"changes": disp.Ring().Mutations(),
			},
		})
	}
}

// addWorker registers a worker at runtime (POST /internal/v1/workers
// {"url":"http://10.0.0.3:8080"}): the ring rebalances, probing starts,
// and the next dispatches can land on it.
func addWorker(disp *cluster.Dispatcher, logger *slog.Logger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		url, ok := workerURL(w, r)
		if !ok {
			return
		}
		if err := disp.AddWorker(url); err != nil {
			admission.WriteEnvelope(w, http.StatusConflict, "conflict", err.Error(), 0)
			return
		}
		logger.Info("worker registered", "worker", url, "ring_size", disp.Ring().Len())
		writeJSON(w, http.StatusOK, map[string]any{
			"workers": disp.Workers(),
		})
	}
}

// removeWorker deregisters a worker at runtime (DELETE with the same
// body as POST, or ?url=). Its keys rebalance onto the survivors.
func removeWorker(disp *cluster.Dispatcher, logger *slog.Logger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		url, ok := workerURL(w, r)
		if !ok {
			return
		}
		if err := disp.RemoveWorker(url); err != nil {
			status, code := http.StatusNotFound, "not_found"
			if strings.Contains(err.Error(), "last worker") {
				status, code = http.StatusConflict, "conflict"
			}
			admission.WriteEnvelope(w, status, code, err.Error(), 0)
			return
		}
		logger.Info("worker deregistered", "worker", url, "ring_size", disp.Ring().Len())
		writeJSON(w, http.StatusOK, map[string]any{
			"workers": disp.Workers(),
		})
	}
}

// workerURL extracts the worker base URL from the JSON body or the
// ?url= query parameter, normalized like the -workers flag.
func workerURL(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req workerRequest
	if r.Body != nil {
		_ = json.NewDecoder(r.Body).Decode(&req)
	}
	if req.URL == "" {
		req.URL = r.URL.Query().Get("url")
	}
	url := strings.TrimRight(strings.TrimSpace(req.URL), "/")
	if url == "" {
		admission.WriteEnvelope(w, http.StatusBadRequest, "bad_request", `missing worker url (JSON body {"url":...} or ?url=)`, 0)
		return "", false
	}
	return url, true
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

// gatewayJobs aggregates the cluster's job listings: the gateway's own
// jobs (the ones clients submitted here) plus each worker's /v1/jobs,
// fetched concurrently — jobs submitted directly to a worker stay
// visible through the gateway's single pane. The fan-out carries the
// internal secret so secret-guarded workers admit it.
func gatewayJobs(eng *engine.Engine, disp *cluster.Dispatcher, client *http.Client, secret string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
		defer cancel()
		var hdr http.Header
		if secret != "" {
			hdr = http.Header{admission.InternalSecretHeader: []string{secret}}
		}
		fetched := cluster.FanOutJSON(ctx, client, disp.Ring().Nodes(), "/v1/jobs", hdr)
		writeJSON(w, http.StatusOK, map[string]any{
			"jobs":    eng.Jobs(),
			"workers": fetched,
		})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
