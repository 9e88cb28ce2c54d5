// Package admission is the front door of both REDS binaries: it decides
// — before a request reaches the engine — who the caller is (bearer
// tokens mapping to client IDs with roles), whether they may call this
// route (submit / read / admin, plus a shared secret for the internal
// gateway→worker API), how fast they may submit (per-client token
// buckets and an in-flight job cap), and how large a job they may ask
// for (ceilings on L, N, the variant grid, body size and runtime).
//
// The package is deliberately engine-agnostic: it knows HTTP routes and
// client identities, not jobs. The engine's API handler pulls the caps
// and the in-flight accounting in through an option (engine.
// WithAdmission), and both binaries wrap their handler as
//
//	telemetry.Instrument(ctrl.Middleware(handler), reg, logger)
//
// so rejected requests still get request IDs, access logs and the
// reds_http_* series, while the admission decision lands in its own
// reds_admission_* families.
//
// Everything is opt-in for compatibility: with no token file every
// caller is the "anonymous" client with all roles, with no quota flags
// nothing is throttled, and with no secret the internal API stays open.
package admission

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/reds-go/reds/internal/telemetry"
)

// InternalSecretHeader carries the shared gateway↔worker secret on
// /internal/v1 requests. Workers started with -internal.secret refuse
// internal calls without it, closing the open gateway→worker path.
const InternalSecretHeader = "X-Reds-Internal-Secret"

// AnonymousClient is the client ID used when authentication is
// disabled (no token file): quotas and in-flight accounting still
// apply, to one shared identity.
const AnonymousClient = "anonymous"

// InternalClient is the client ID assigned to callers presenting the
// internal shared secret (the gateway's dispatcher, fan-out listings
// and probes). It carries every role and is exempt from quotas — the
// gateway's own engine queue is its backpressure.
const InternalClient = "internal"

// Rejection reasons, used as the "reason" label of
// reds_admission_rejected_total and mirrored in error-envelope codes.
const (
	ReasonUnauthorized  = "unauthorized"
	ReasonForbidden     = "forbidden"
	ReasonRateLimited   = "rate_limited"
	ReasonInflightLimit = "inflight_limit"
	ReasonQueueFull     = "queue_full"
	ReasonBodyTooLarge  = "body_too_large"
	ReasonLimitExceeded = "limit_exceeded"
)

// Caps are server-side ceilings on what one job may ask for, enforced
// at submission so oversized work is rejected before it costs anything.
// Zero values disable the individual cap.
type Caps struct {
	// MaxL caps the pseudo-label sample size (after the engine default
	// is applied, so omitting l does not bypass the cap).
	MaxL int
	// MaxN caps the training-set size: the simulation count of function
	// requests and the row count of inline datasets.
	MaxN int
	// MaxVariants caps the metamodel × SD grid — the number of
	// concurrent sub-tasks one job fans out into.
	MaxVariants int
	// MaxBodyBytes caps the request body of job submissions
	// (http.MaxBytesReader; the handler maps the trip to 413).
	MaxBodyBytes int64
	// MaxRuntime bounds every job's wall-clock execution budget: it is
	// the ceiling for the request's deadline_seconds field and the
	// default deadline when a request sets none.
	MaxRuntime time.Duration
}

// Options configure a Controller.
type Options struct {
	// Tokens is the bearer-token store; nil disables authentication
	// (every caller becomes AnonymousClient with all roles).
	Tokens *TokenStore
	// RPS and Burst are the default per-client submission rate (token
	// bucket; per-client overrides in the token file win). RPS <= 0
	// disables rate limiting for clients without an override.
	RPS   float64
	Burst int
	// MaxInFlight is the default per-client cap on jobs that are
	// submitted but not yet terminal. 0 disables the cap for clients
	// without an override.
	MaxInFlight int
	// Caps are the resource ceilings enforced at submission.
	Caps Caps
	// InternalSecret guards /internal/v1: when set, internal calls must
	// carry it in InternalSecretHeader, and any caller presenting it is
	// the InternalClient with full roles. Empty leaves the internal API
	// open (single-tenant compatibility).
	InternalSecret string
	// Metrics receives the reds_admission_* instruments. nil gets a
	// private registry.
	Metrics *telemetry.Registry
	// Logger receives admission rejections at warn level. nil uses
	// slog.Default().
	Logger *slog.Logger
}

// Controller evaluates admission for every request: identity, roles,
// rate, in-flight budget and resource caps. All methods are safe for
// concurrent use.
type Controller struct {
	tokens      *TokenStore
	limiter     *Limiter
	rps         float64
	burst       int
	maxInFlight int
	caps        Caps
	secret      string
	log         *slog.Logger

	mAllowed  *telemetry.CounterVec
	mRejected *telemetry.CounterVec
	inflight  *inflightTable
}

// New builds a Controller. A zero Options value admits everything —
// each control arms only when its option is set.
func New(opts Options) *Controller {
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Controller{
		tokens:      opts.Tokens,
		limiter:     NewLimiter(),
		rps:         opts.RPS,
		burst:       opts.Burst,
		maxInFlight: opts.MaxInFlight,
		caps:        opts.Caps,
		secret:      opts.InternalSecret,
		log:         logger,
		mAllowed: reg.CounterVec("reds_admission_allowed_total",
			"Requests admitted past authentication, authorization and quota checks.", "client"),
		mRejected: reg.CounterVec("reds_admission_rejected_total",
			"Requests rejected by admission control, by reason (unauthorized, forbidden, rate_limited, inflight_limit, queue_full, body_too_large, limit_exceeded).",
			"client", "reason"),
		inflight: newInflightTable(reg.GaugeVec("reds_admission_inflight_jobs",
			"Jobs submitted but not yet terminal, per client.", "client")),
	}
}

// Caps returns the resource ceilings for submission-time validation.
func (c *Controller) Caps() Caps { return c.caps }

// AuthEnabled reports whether bearer-token authentication is armed.
func (c *Controller) AuthEnabled() bool { return c.tokens != nil }

// ReloadTokens re-reads the token file (SIGHUP handler). A no-op
// without a token store.
func (c *Controller) ReloadTokens() error {
	if c.tokens == nil {
		return nil
	}
	return c.tokens.Reload()
}

// RecordRejected counts a rejection that was decided outside the
// middleware (caps, in-flight, queue-full and body-size trips happen in
// the engine's submit handler, which knows the job).
func (c *Controller) RecordRejected(client, reason string) {
	if client == "" {
		client = AnonymousClient
	}
	c.mRejected.With(client, reason).Inc()
}

// AcquireJob reserves one in-flight job slot for the client. It returns
// a release function to call exactly once when the job reaches a
// terminal state (the engine's OnDone hook), or retryAfter > 0 when the
// client is at its cap. The internal client is exempt.
//
// The accounting is process-local: a restart resets it (jobs recovered
// from a durable store do not re-occupy their submitter's slots).
func (c *Controller) AcquireJob(client string) (release func(), retryAfter time.Duration) {
	if client == "" {
		client = AnonymousClient
	}
	limit := c.maxInFlight
	if c.tokens != nil {
		if id, ok := c.tokens.client(client); ok && id.MaxInFlight > 0 {
			limit = id.MaxInFlight
		}
	}
	if client == InternalClient {
		limit = 0
	}
	ok, release := c.inflight.acquire(client, limit)
	if !ok {
		c.RecordRejected(client, ReasonInflightLimit)
		return nil, time.Second
	}
	return release, 0
}

// quotaFor resolves the effective rate-limit parameters for a client:
// the token file's per-client override when present, the controller's
// defaults otherwise.
func (c *Controller) quotaFor(ident Identity) (rps float64, burst int) {
	rps, burst = c.rps, c.burst
	if ident.RPS > 0 {
		rps = ident.RPS
	}
	if ident.Burst > 0 {
		burst = ident.Burst
	}
	if burst <= 0 {
		burst = int(math.Ceil(rps))
		if burst < 1 {
			burst = 1
		}
	}
	return rps, burst
}

// CheckDeadline validates and defaults a request's deadline against
// MaxRuntime: a deadline above the ceiling is an error, and a request
// without one inherits the ceiling (so the bound travels with the
// serialized request to whichever worker executes it). It returns the
// effective deadline_seconds value.
func (c *Controller) CheckDeadline(deadlineSeconds float64) (float64, error) {
	max := c.caps.MaxRuntime
	if max <= 0 {
		return deadlineSeconds, nil
	}
	if deadlineSeconds > max.Seconds() {
		return 0, fmt.Errorf("deadline_seconds %g exceeds the server's -job.max-runtime of %gs", deadlineSeconds, max.Seconds())
	}
	if deadlineSeconds == 0 {
		return max.Seconds(), nil
	}
	return deadlineSeconds, nil
}

// clientKey is the context key carrying the authenticated client ID.
type clientKey struct{}

// ClientFrom returns the authenticated client ID the middleware put on
// the request context ("" when the request did not pass through the
// middleware).
func ClientFrom(ctx context.Context) string {
	s, _ := ctx.Value(clientKey{}).(string)
	return s
}

// routeClass is what the middleware decided a path needs.
type routeClass int

const (
	routeOpen     routeClass = iota // health, readiness, metrics
	routeSubmit                     // POST /v1/jobs — submit role + rate limit + body cap
	routeCancel                     // DELETE /v1/jobs/{id} — submit role
	routeRead                       // other /v1 GETs — read role
	routeInternal                   // /internal/v1/execute* — shared secret
	routeAdmin                      // /internal/v1/workers — admin role (or secret)
)

// classify maps method+path to a route class. Unknown paths are treated
// as reads: they 404 downstream, but only for authenticated callers —
// the router must not be a probe surface.
func classify(r *http.Request) routeClass {
	p := r.URL.Path
	switch {
	case p == "/v1/healthz" || p == "/v1/readyz" || p == "/metrics":
		return routeOpen
	case strings.HasPrefix(p, "/internal/v1/execute"):
		return routeInternal
	case strings.HasPrefix(p, "/internal/v1/workers"):
		return routeAdmin
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return routeSubmit
	case r.Method == http.MethodDelete && strings.HasPrefix(p, "/v1/jobs/"):
		return routeCancel
	default:
		return routeRead
	}
}

// roleFor is the role a route class demands from bearer-token callers.
func roleFor(class routeClass) string {
	switch class {
	case routeSubmit, routeCancel:
		return RoleSubmit
	case routeAdmin:
		return RoleAdmin
	default:
		return RoleRead
	}
}

// hasSecret reports whether the request carries the internal shared
// secret. Constant-time comparison: the header is an authentication
// credential.
func (c *Controller) hasSecret(r *http.Request) bool {
	if c.secret == "" {
		return false
	}
	got := r.Header.Get(InternalSecretHeader)
	return len(got) == len(c.secret) &&
		subtle.ConstantTimeCompare([]byte(got), []byte(c.secret)) == 1
}

// Middleware enforces admission in front of a /v1 (+ /internal/v1)
// handler:
//
//   - health, readiness and metrics stay open;
//   - /internal/v1/execute requires the shared secret (when configured);
//   - /internal/v1/workers requires the admin role or the secret;
//   - POST /v1/jobs requires the submit role, passes the per-client
//     token bucket, and has its body bounded by Caps.MaxBodyBytes;
//   - DELETE /v1/jobs/{id} requires the submit role;
//   - every other /v1 route requires the read role.
//
// The authenticated client ID lands on the request context (ClientFrom)
// for owner stamping and per-client accounting downstream. Rejections
// use the same JSON error envelope as the API and are counted in
// reds_admission_rejected_total.
func (c *Controller) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := classify(r)
		if class == routeOpen {
			next.ServeHTTP(w, r)
			return
		}

		// Identity: the internal secret outranks bearer tokens (the
		// gateway authenticates to workers with it for execution, job
		// fan-out and admin probes alike).
		ident := Identity{Client: AnonymousClient, Roles: allRoles()}
		switch {
		case c.hasSecret(r):
			ident = Identity{Client: InternalClient, Roles: allRoles()}
		case class == routeInternal && c.secret != "":
			// The execute API is machine-to-machine: only the secret
			// admits, tokens do not.
			c.reject(w, r, http.StatusUnauthorized, ReasonUnauthorized,
				AnonymousClient, fmt.Errorf("missing or wrong %s header", InternalSecretHeader))
			return
		case c.tokens != nil:
			tok, ok := bearerToken(r)
			if !ok {
				c.reject(w, r, http.StatusUnauthorized, ReasonUnauthorized,
					AnonymousClient, fmt.Errorf("missing bearer token (Authorization: Bearer ...)"))
				return
			}
			ident, ok = c.tokens.Lookup(tok)
			if !ok {
				c.reject(w, r, http.StatusUnauthorized, ReasonUnauthorized,
					AnonymousClient, fmt.Errorf("unknown token"))
				return
			}
		}

		if role := roleFor(class); !ident.Roles[role] {
			c.reject(w, r, http.StatusForbidden, ReasonForbidden, ident.Client,
				fmt.Errorf("client %s lacks the %s role", ident.Client, role))
			return
		}

		if class == routeSubmit && ident.Client != InternalClient {
			if rps, burst := c.quotaFor(ident); rps > 0 {
				if ok, retryAfter := c.limiter.Allow(ident.Client, rps, burst); !ok {
					c.rejectAfter(w, r, http.StatusTooManyRequests, ReasonRateLimited,
						ident.Client, retryAfter,
						fmt.Errorf("client %s is over its %g req/s submission rate", ident.Client, rps))
					return
				}
			}
		}
		if class == routeSubmit && c.caps.MaxBodyBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, c.caps.MaxBodyBytes)
		}

		c.mAllowed.With(ident.Client).Inc()
		next.ServeHTTP(w, r.WithContext(
			context.WithValue(r.Context(), clientKey{}, ident.Client)))
	})
}

// reject writes the API error envelope and counts the rejection.
func (c *Controller) reject(w http.ResponseWriter, r *http.Request, status int, reason, client string, err error) {
	c.rejectAfter(w, r, status, reason, client, 0, err)
}

func (c *Controller) rejectAfter(w http.ResponseWriter, r *http.Request, status int, reason, client string, retryAfter time.Duration, err error) {
	c.mRejected.With(client, reason).Inc()
	c.log.Warn("request rejected by admission control",
		"client", client, "reason", reason, "method", r.Method, "path", r.URL.Path,
		"request_id", telemetry.RequestID(r.Context()))
	WriteEnvelope(w, status, reason, err.Error(), retryAfter)
}

// WriteEnvelope writes the API's JSON error envelope, the one shape of
// every error the engine, the gateway and admission control answer. A
// retryAfter > 0 also sets the Retry-After header and the envelope's
// retry_after_seconds hint.
func WriteEnvelope(w http.ResponseWriter, status int, code, message string, retryAfter time.Duration) {
	type envError struct {
		Code              string  `json:"code"`
		Message           string  `json:"message"`
		RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterHeader(retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]any{"error": envError{
		Code:              code,
		Message:           message,
		RetryAfterSeconds: retryAfter.Seconds(),
	}})
}

// retryAfterHeader renders a Retry-After value: integral seconds,
// rounded up so a client that waits exactly this long is admitted.
func retryAfterHeader(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// bearerToken extracts the Authorization: Bearer credential.
func bearerToken(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return strings.TrimSpace(h[len(prefix):]), true
}
