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
//
// The flags, start-up and shutdown it shares with redsserver live in
// cmd/internal/daemon. On SIGTERM the gateway closes its listener, then
// gives the jobs it has dispatched -drain.timeout to finish (their
// checkpoints are persisted along the way, so whatever is cut off
// resumes after restart).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"github.com/reds-go/reds/cmd/internal/daemon"
	"github.com/reds-go/reds/internal/admission"
	"github.com/reds-go/reds/internal/cluster"
	"github.com/reds-go/reds/internal/engine"
)

func main() {
	cfg := daemon.RegisterFlags(":8090", 256)
	workersFlag := flag.String("workers", "", "comma-separated redsserver base URLs (required), e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
	dispatch := flag.Int("dispatch", 0, "jobs dispatched concurrently (default 2 per worker)")
	replicas := flag.Int("hash.replicas", 128, "virtual nodes per worker on the consistent-hash ring")
	healthInterval := flag.Duration("health.interval", 2*time.Second, "worker health-probe period")
	healthTimeout := flag.Duration("health.timeout", time.Second, "single health-probe timeout")
	flag.Parse()
	d := daemon.Start("redsgateway", cfg)

	workers := splitWorkers(*workersFlag)
	if len(workers) == 0 {
		d.Fatal("-workers is required", errors.New("comma-separated redsserver base URLs"))
	}
	if *dispatch <= 0 {
		*dispatch = 2 * len(workers)
	}
	client := &http.Client{Timeout: 15 * time.Second}
	disp, err := cluster.NewDispatcher(workers, cluster.DispatcherOptions{
		Replicas:       *replicas,
		Client:         client,
		Metrics:        d.Metrics,
		InternalSecret: d.InternalSecret,
		Health: cluster.HealthOptions{
			Interval: *healthInterval,
			Timeout:  *healthTimeout,
		},
	})
	if err != nil {
		d.Fatal("building dispatcher failed", err)
	}
	eng := d.Engine(*dispatch, disp)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", gatewayHealthz(eng, disp))
	mux.HandleFunc("GET /v1/readyz", gatewayReadyz(disp))
	mux.HandleFunc("GET /v1/jobs", gatewayJobs(eng, disp, client, d.InternalSecret))
	mux.HandleFunc("GET /internal/v1/workers", listWorkers(disp))
	mux.HandleFunc("POST /internal/v1/workers", addWorker(disp, d.Log))
	mux.HandleFunc("DELETE /internal/v1/workers", removeWorker(disp, d.Log))
	mux.Handle("GET /metrics", d.Metrics.Handler())
	mux.Handle("/", engine.NewHandler(eng, engine.WithAdmission(d.Admission)))

	d.Log.Info("dispatching to workers", "workers", strings.Join(workers, ", "))
	d.Serve(mux, eng, nil, disp.Close)
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
