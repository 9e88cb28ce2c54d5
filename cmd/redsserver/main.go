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
//
// The flags, start-up and shutdown it shares with redsgateway live in
// cmd/internal/daemon. On SIGTERM the worker refuses new job
// submissions (503) and drains the executions gateways dispatched to
// it, while its listener still serves, so each gateway collects its
// result instead of re-running the work elsewhere; then the listener
// closes and the engine drains.
package main

import (
	"flag"
	"time"

	"github.com/reds-go/reds/cmd/internal/daemon"
	"github.com/reds-go/reds/internal/engine"
)

func main() {
	cfg := daemon.RegisterFlags(":8080", 64)
	workers := flag.Int("workers", 0, "concurrent jobs (default GOMAXPROCS/2)")
	cacheBytes := flag.Int64("cache.bytes", 256<<20, "metamodel cache budget in approximate model bytes")
	cacheTTL := flag.Duration("cache.ttl", 0, "expiry of cached metamodels after training (0: never)")
	labelCacheBytes := flag.Int64("labelcache.bytes", 256<<20, "pseudo-label dataset cache budget in approximate bytes")
	labelCacheTTL := flag.Duration("labelcache.ttl", 0, "expiry of cached pseudo-labeled datasets (0: never)")
	rulesetCacheBytes := flag.Int64("rulesetcache.bytes", 64<<20, "distilled rule-set cache budget in approximate bytes")
	rulesetCacheTTL := flag.Duration("rulesetcache.ttl", 0, "expiry of cached distilled rule sets (0: never)")
	internalOff := flag.Bool("internal.disable", false, "do not expose the internal execution API used by redsgateway")
	flag.Parse()
	d := daemon.Start("redsserver", cfg)

	// One executor serves both the engine's own jobs and gateway-
	// dispatched executions, so they share the metamodel cache.
	executor := engine.NewLocalExecutor(engine.LocalExecutorOptions{
		CacheBytes:        *cacheBytes,
		CacheTTL:          *cacheTTL,
		LabelCacheBytes:   *labelCacheBytes,
		LabelCacheTTL:     *labelCacheTTL,
		RulesetCacheBytes: *rulesetCacheBytes,
		RulesetCacheTTL:   *rulesetCacheTTL,
		Metrics:           d.Metrics,
	})
	eng := d.Engine(*workers, executor)

	handlerOpts := []engine.HandlerOption{engine.WithMetrics(d.Metrics), engine.WithAdmission(d.Admission)}
	var drain func(time.Duration) bool
	var closers []func()
	if !*internalOff {
		execSrv := engine.NewExecServer(executor, engine.ExecServerOptions{Metrics: d.Metrics, Logger: d.Log})
		handlerOpts = append(handlerOpts, engine.WithExecutionAPI(execSrv))
		drain, closers = execSrv.Drain, []func(){execSrv.Close}
	}
	d.Serve(engine.NewHandler(eng, handlerOpts...), eng, drain, closers...)
}
