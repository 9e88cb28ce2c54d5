package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/reds-go/reds/internal/admission"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/telemetry"
)

// apiJobRequest is the wire form of a job submission: an engine Request
// plus a csv convenience field for inline data (last column = label).
type apiJobRequest struct {
	Request
	CSV string `json:"csv,omitempty"`
}

// apiError is the error envelope every /v1 endpoint uses, including the
// router's own 404/405 responses (see jsonErrors):
//
//	{"error": {"code": "not_found", "message": "unknown job job-000042"}}
//
// Codes are stable machine-readable strings; messages are for humans.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds hints when a throttled request (429) is worth
	// retrying; mirrors the Retry-After header.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// Error codes used by the /v1 API (documented in docs/API.md).
const (
	errBadRequest       = "bad_request"        // malformed JSON or invalid request fields
	errNotFound         = "not_found"          // unknown job id or route
	errMethodNotAllowed = "method_not_allowed" // known route, wrong HTTP method
	errQueueFull        = "queue_full"         // submission rejected by backpressure (429)
	errInflightLimit    = "inflight_limit"     // client at its in-flight job cap (429)
	errLimitExceeded    = "limit_exceeded"     // request exceeds a server resource cap (400)
	errBodyTooLarge     = "body_too_large"     // request body over the byte limit (413)
	errNotReady         = "not_ready"          // result requested before the job finished
	errInternal         = "internal"           // unexpected server-side failure
)

// defaultMaxBodyBytes bounds POST /v1/jobs bodies when no admission
// controller is configured: large enough for paper-scale inline CSVs,
// small enough that a stray upload cannot exhaust memory.
const defaultMaxBodyBytes = 64 << 20

// FunctionInfo describes one registry entry for GET /v1/functions.
type FunctionInfo struct {
	Name       string  `json:"name"`
	Dim        int     `json:"dim"`
	Stochastic bool    `json:"stochastic"`
	Threshold  float64 `json:"threshold,omitempty"`
}

// HandlerOption customizes NewHandler.
type HandlerOption func(*handlerConfig)

type handlerConfig struct {
	execServer *ExecServer
	metrics    *telemetry.Registry
	admission  *admission.Controller
}

// WithExecutionAPI mounts the internal execution API (the worker side
// of RemoteExecutor, see ExecServer) on the same handler and folds its
// counters into /v1/healthz.
func WithExecutionAPI(es *ExecServer) HandlerOption {
	return func(c *handlerConfig) { c.execServer = es }
}

// WithMetrics mounts Prometheus text exposition of reg at GET /metrics.
func WithMetrics(reg *telemetry.Registry) HandlerOption {
	return func(c *handlerConfig) { c.metrics = reg }
}

// WithAdmission connects the handler to an admission controller: job
// submissions are validated against its resource caps (l, n, variant
// grid, train_bins, deadline), charged against the submitting client's
// in-flight budget, and stamped with the authenticated client identity
// the controller's Middleware put on the request context. The
// middleware itself must be mounted separately, in front of the whole
// handler (see cmd/redsserver).
func WithAdmission(ctrl *admission.Controller) HandlerOption {
	return func(c *handlerConfig) { c.admission = ctrl }
}

// NewHandler returns the /v1 HTTP API over an engine:
//
//	POST   /v1/jobs          submit a discovery job
//	GET    /v1/jobs          list jobs
//	GET    /v1/jobs/{id}     job status + progress
//	DELETE /v1/jobs/{id}     cancel a job
//	GET    /v1/jobs/{id}/result  final payload of a done job
//	GET    /v1/jobs/{id}/rules   distilled rule sets of a done job
//	GET    /v1/functions     simulation-function registry
//	GET    /v1/healthz       liveness + cache/job counters
//
// Every error response — including the router's own 404/405 — uses the
// apiError envelope. The full request/response reference lives in
// docs/API.md.
func NewHandler(e *Engine, opts ...HandlerOption) http.Handler {
	var cfg handlerConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	mux := http.NewServeMux()
	if cfg.execServer != nil {
		cfg.execServer.register(mux)
	}
	if cfg.metrics != nil {
		mux.Handle("GET /metrics", cfg.metrics.Handler())
	}
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// The authenticated client, when the admission middleware ran in
		// front of this handler ("" otherwise).
		client := admission.ClientFrom(r.Context())
		if cfg.admission == nil {
			// No admission controller: still bound the body, with the
			// default limit (the controller's middleware wraps the body
			// with its configured cap before the request gets here).
			r.Body = http.MaxBytesReader(w, r.Body, defaultMaxBodyBytes)
		}
		var req apiJobRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				if cfg.admission != nil {
					cfg.admission.RecordRejected(client, admission.ReasonBodyTooLarge)
				}
				writeError(w, http.StatusRequestEntityTooLarge, errBodyTooLarge,
					fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, errBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		if req.CSV != "" {
			if req.Dataset != nil {
				writeError(w, http.StatusBadRequest, errBadRequest, fmt.Errorf("request has both csv and dataset; pick one"))
				return
			}
			d, err := dataset.ReadCSV(strings.NewReader(req.CSV))
			if err != nil {
				writeError(w, http.StatusBadRequest, errBadRequest, err)
				return
			}
			req.Dataset = d
		}
		// Checkpoints are infrastructure state (dispatcher failover and
		// crash recovery attach them); a client-supplied one is ignored
		// rather than trusted to skip stages.
		req.Checkpoint = nil
		var onDone func()
		if cfg.admission != nil {
			if err := checkCaps(cfg.admission.Caps(), req.Request); err != nil {
				cfg.admission.RecordRejected(client, admission.ReasonLimitExceeded)
				writeError(w, http.StatusBadRequest, errLimitExceeded, err)
				return
			}
			d, err := cfg.admission.CheckDeadline(req.DeadlineSeconds)
			if err != nil {
				cfg.admission.RecordRejected(client, admission.ReasonLimitExceeded)
				writeError(w, http.StatusBadRequest, errLimitExceeded, err)
				return
			}
			req.DeadlineSeconds = d
			release, retryAfter := cfg.admission.AcquireJob(client)
			if release == nil {
				writeErrorRetry(w, http.StatusTooManyRequests, errInflightLimit,
					fmt.Errorf("client is at its in-flight job limit; wait for a job to finish"),
					retryAfter)
				return
			}
			onDone = release
		}
		// The job continues the HTTP request's trace: the middleware
		// (telemetry.Instrument) put the inbound or generated
		// X-Request-Id on the context, and the engine carries it through
		// the job's logs, snapshot and — over a RemoteExecutor — to the
		// worker. Owner stamps the snapshot's client field; OnDone frees
		// the in-flight slot at the job's terminal transition.
		id, err := e.SubmitWith(req.Request, SubmitOptions{
			RequestID: telemetry.RequestID(r.Context()),
			Owner:     client,
			OnDone:    onDone,
		})
		if err != nil {
			if onDone != nil {
				onDone() // the job never enqueued; free its slot now
			}
			if errors.Is(err, ErrQueueFull) {
				if cfg.admission != nil {
					cfg.admission.RecordRejected(client, admission.ReasonQueueFull)
				}
				writeErrorRetry(w, http.StatusTooManyRequests, errQueueFull, err, time.Second)
				return
			}
			writeError(w, http.StatusBadRequest, errBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{
			"id":     string(id),
			"status": string(StatusPending),
			"href":   "/v1/jobs/" + string(id),
		})
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := e.Jobs()
		// ?client= narrows the listing to one submitter (the value the
		// admission middleware authenticated, echoed as each snapshot's
		// client field).
		if owner := r.URL.Query().Get("client"); owner != "" {
			filtered := make([]Snapshot, 0, len(jobs))
			for _, s := range jobs {
				if s.Client == owner {
					filtered = append(filtered, s)
				}
			}
			jobs = filtered
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := e.Job(JobID(r.PathValue("id")))
		if !ok {
			writeError(w, http.StatusNotFound, errNotFound, fmt.Errorf("unknown job %s", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := JobID(r.PathValue("id"))
		if _, ok := e.Job(id); !ok {
			writeError(w, http.StatusNotFound, errNotFound, fmt.Errorf("unknown job %s", id))
			return
		}
		canceled := e.Cancel(id)
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "canceled": canceled})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := JobID(r.PathValue("id"))
		snap, ok := e.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, errNotFound, fmt.Errorf("unknown job %s", id))
			return
		}
		res, err := e.Result(id)
		if err != nil {
			// A done job whose stored result cannot load is a server-side
			// failure, not something a client should retry as not-ready.
			if snap.Status == StatusDone {
				writeError(w, http.StatusInternalServerError, errInternal, err)
				return
			}
			// Not ready, canceled or failed: the envelope carries the
			// reason, "status" the job's current lifecycle state.
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":  apiError{Code: errNotReady, Message: err.Error()},
				"status": snap.Status,
			})
			return
		}
		writeJSON(w, http.StatusOK, stripRulesets(res))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/rules", func(w http.ResponseWriter, r *http.Request) {
		id := JobID(r.PathValue("id"))
		snap, ok := e.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, errNotFound, fmt.Errorf("unknown job %s", id))
			return
		}
		res, err := e.Result(id)
		if err != nil {
			if snap.Status == StatusDone {
				writeError(w, http.StatusInternalServerError, errInternal, err)
				return
			}
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":  apiError{Code: errNotReady, Message: err.Error()},
				"status": snap.Status,
			})
			return
		}
		// One entry per metamodel family: the SD variants of a family
		// share one labeling (and therefore one kernel resolution), so
		// their ruleset entries would be identical.
		type rulesetEntry struct {
			Metamodel string `json:"metamodel"`
			KernelReport
		}
		seen := map[string]bool{}
		entries := []rulesetEntry{}
		for _, vr := range res.Variants {
			if seen[vr.Metamodel] || vr.Error != "" {
				continue
			}
			seen[vr.Metamodel] = true
			entries = append(entries, rulesetEntry{Metamodel: vr.Metamodel, KernelReport: vr.KernelReport})
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"id":           id,
			"dataset_hash": res.DatasetHash,
			"rulesets":     entries,
		})
	})
	mux.HandleFunc("GET /v1/functions", func(w http.ResponseWriter, r *http.Request) {
		var out []FunctionInfo
		for _, name := range funcs.Names() {
			f, err := funcs.Get(name)
			if err != nil {
				continue
			}
			info := FunctionInfo{Name: f.Name(), Dim: f.Dim(), Stochastic: f.Stochastic()}
			if !f.Stochastic() {
				info.Threshold = f.Threshold()
			}
			out = append(out, info)
		}
		writeJSON(w, http.StatusOK, map[string]any{"functions": out})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		// The field names are the pre-telemetry wire contract; the values
		// are read from the same registry instruments /metrics exposes
		// (CacheStats is a view over the reds_cache_* series), so the two
		// surfaces cannot drift apart.
		cs := e.CacheStats()
		ls := e.LabelCacheStats()
		rec := e.Recovery()
		body := map[string]any{
			"ok":                    true,
			"cache_hits":            cs.Hits,
			"cache_misses":          cs.Misses,
			"cache_evictions":       cs.Evictions,
			"cache_entries":         cs.Entries,
			"cache_bytes":           cs.Bytes,
			"label_cache_hits":      ls.Hits,
			"label_cache_misses":    ls.Misses,
			"label_cache_evictions": ls.Evictions,
			"label_cache_entries":   ls.Entries,
			"label_cache_bytes":     ls.Bytes,
			"jobs":                  e.JobCount(),
			"jobs_recovered":        rec.Recovered,
		}
		rs := e.RulesetCacheStats()
		body["ruleset_cache_hits"] = rs.Hits
		body["ruleset_cache_misses"] = rs.Misses
		body["ruleset_cache_evictions"] = rs.Evictions
		body["ruleset_cache_entries"] = rs.Entries
		body["ruleset_cache_bytes"] = rs.Bytes
		if cfg.execServer != nil {
			started, active := cfg.execServer.Executions()
			body["executions"] = started
			body["executions_active"] = active
		}
		writeJSON(w, http.StatusOK, body)
	})
	return jsonErrors(mux)
}

// stripRulesets shallow-copies a result without the variants' inline
// rule-set exports: /result stays small (a paper-scale rule set is
// tens of kilobytes per family) and GET /v1/jobs/{id}/rules is the one
// surface that serves the artifact. The stored result keeps the rules;
// only the response omits them.
func stripRulesets(res *Result) *Result {
	needs := res.Best.Ruleset != nil
	for i := range res.Variants {
		needs = needs || res.Variants[i].Ruleset != nil
	}
	if !needs {
		return res
	}
	out := *res
	out.Best.Ruleset = nil
	out.Variants = make([]VariantResult, len(res.Variants))
	copy(out.Variants, res.Variants)
	for i := range out.Variants {
		out.Variants[i].Ruleset = nil
	}
	return &out
}

// checkCaps validates a request against the server's resource ceilings.
// The effective (defaulted) values are compared, so omitting a field
// does not bypass its cap.
func checkCaps(caps admission.Caps, req Request) error {
	if caps.MaxL > 0 && req.effectiveL() > caps.MaxL {
		return fmt.Errorf("l %d exceeds the server cap of %d", req.effectiveL(), caps.MaxL)
	}
	if caps.MaxN > 0 {
		if req.Function != "" && req.effectiveN() > caps.MaxN {
			return fmt.Errorf("n %d exceeds the server cap of %d", req.effectiveN(), caps.MaxN)
		}
		if req.Dataset != nil && req.Dataset.N() > caps.MaxN {
			return fmt.Errorf("inline dataset has %d rows, over the server cap of %d", req.Dataset.N(), caps.MaxN)
		}
	}
	if caps.MaxVariants > 0 {
		if n := len(buildVariants(req)); n > caps.MaxVariants {
			return fmt.Errorf("metamodels × sd grid has %d variants, over the server cap of %d", n, caps.MaxVariants)
		}
	}
	if caps.MaxTrainBins > 0 && req.TrainBins > caps.MaxTrainBins {
		return fmt.Errorf("train_bins %d exceeds the server cap of %d", req.TrainBins, caps.MaxTrainBins)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]any{"error": apiError{Code: code, Message: err.Error()}})
}

// writeErrorRetry is writeError for throttled requests: it sets the
// Retry-After header (integral seconds, rounded up, min 1) and mirrors
// the hint in the envelope's retry_after_seconds field.
func writeErrorRetry(w http.ResponseWriter, status int, code string, err error, retryAfter time.Duration) {
	secs := int64(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, status, map[string]any{"error": apiError{
		Code:              code,
		Message:           err.Error(),
		RetryAfterSeconds: retryAfter.Seconds(),
	}})
}

// jsonErrors converts the plain-text 404/405 responses of the standard
// ServeMux (unknown route, wrong method) into the API's JSON error
// envelope, so every error a client can receive under /v1 has the same
// shape. Handler-written responses pass through untouched: they set
// Content-Type application/json before writing.
func jsonErrors(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w, req: r}, r)
	})
}

// envelopeWriter intercepts WriteHeader: a 404/405 status written
// without a JSON content type comes from the router itself, so the
// writer substitutes the envelope and swallows the original text body.
type envelopeWriter struct {
	http.ResponseWriter
	req       *http.Request
	intercept bool
}

func (w *envelopeWriter) WriteHeader(status int) {
	ct := w.Header().Get("Content-Type")
	if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) &&
		ct != "application/json" {
		w.intercept = true
		code, msg := errNotFound, fmt.Sprintf("no route %s %s", w.req.Method, w.req.URL.Path)
		if status == http.StatusMethodNotAllowed {
			code = errMethodNotAllowed
			msg = fmt.Sprintf("method %s not allowed on %s", w.req.Method, w.req.URL.Path)
			if allow := w.Header().Get("Allow"); allow != "" {
				msg += " (allowed: " + allow + ")"
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Del("X-Content-Type-Options")
		w.ResponseWriter.WriteHeader(status)
		enc := json.NewEncoder(w.ResponseWriter)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"error": apiError{Code: code, Message: msg}})
		return
	}
	w.ResponseWriter.WriteHeader(status)
}

// Write drops the router's text body once the envelope has been sent.
func (w *envelopeWriter) Write(b []byte) (int, error) {
	if w.intercept {
		return len(b), nil
	}
	return w.ResponseWriter.Write(b)
}
