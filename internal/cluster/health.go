package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/telemetry"
)

// Circuit-breaker states. closed = healthy, the first failure opens it;
// open = tripped, node out of rotation until the cooldown elapses;
// half-open = cooldown over, trial probes decide whether the node
// rejoins.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// NodeStatus is one worker's health as the gateway sees it.
type NodeStatus struct {
	Node  string `json:"node"`
	Alive bool   `json:"alive"`
	// Error is the most recent probe/execution failure; cleared when
	// the node comes back.
	Error string `json:"error,omitempty"`
	// CheckedAt is the time of the last probe (zero before the first
	// one completes).
	CheckedAt time.Time `json:"checked_at,omitzero"`
	// Breaker is the node's circuit-breaker state (closed, open or
	// half-open). A node is only Alive with a closed breaker.
	Breaker string `json:"breaker"`
	// RetryAt is when an open breaker lets the next probe through as a
	// trial; zero unless the breaker is open.
	RetryAt time.Time `json:"retry_at,omitzero"`
}

// HealthOptions tune the prober.
type HealthOptions struct {
	// Interval between probe rounds (default 2s).
	Interval time.Duration
	// Timeout of one probe request (default 1s).
	Timeout time.Duration
	// Client defaults to http.DefaultClient with Timeout applied per
	// request context.
	Client *http.Client
	// SuccessThreshold is how many consecutive probe successes a
	// half-open node needs before its breaker closes and it rejoins the
	// rotation (default 1).
	SuccessThreshold int
	// BreakerCooldown is the open-state cooldown before the first trial
	// probe is let through; each consecutive trip doubles it, jittered,
	// capped at breakerMaxCooldown. Default 500ms.
	BreakerCooldown time.Duration
	// Metrics is the registry for the prober's instruments
	// (reds_cluster_probes_total{worker,result}, the alive-workers
	// gauge, and reds_cluster_breaker_transitions_total{worker,state}).
	// nil gets a private registry.
	Metrics *telemetry.Registry

	// now is the prober's clock — injectable so breaker tests can move
	// time instead of sleeping.
	now func() time.Time
}

func (o HealthOptions) withDefaults() HealthOptions {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = time.Second
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.SuccessThreshold <= 0 {
		o.SuccessThreshold = 1
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 500 * time.Millisecond
	}
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// breakerMaxCooldown caps the exponential growth of the open-state
// cooldown.
const breakerMaxCooldown = 30 * time.Second

// breaker is the per-node circuit-breaker bookkeeping behind NodeStatus.
type breaker struct {
	state     string
	successes int // consecutive successes while half-open
	trips     int // consecutive opens; drives the cooldown growth
	retryAt   time.Time
}

// Health probes each worker's GET /v1/healthz on a fixed interval and
// remembers who answers. Nodes start alive (optimistically — before the
// first probe completes the dispatcher would otherwise have nowhere to
// send work), and a dispatcher that watches an execution fail with
// ErrUnavailable can MarkDead a node immediately instead of waiting for
// the next probe round. Each node carries a circuit breaker: failures
// open it (with an exponentially growing, jittered cooldown on repeated
// trips), the cooldown elapsing half-opens it, and trial probe
// successes close it again — so a flapping worker cannot rejoin the
// rotation on every brief recovery. The node set is dynamic: Add and
// Remove change who gets probed.
type Health struct {
	opts HealthOptions
	// mProbes counts probe outcomes per worker (result = ok|fail).
	mProbes *telemetry.CounterVec
	// mBreaker counts breaker state transitions per worker.
	mBreaker *telemetry.CounterVec

	// ready is closed when the first probe round completes; readiness
	// gates (the gateway's /v1/readyz) key off it so traffic only flows
	// once liveness is observed, not assumed.
	ready     chan struct{}
	readyOnce sync.Once

	mu       sync.Mutex
	status   map[string]*NodeStatus
	breakers map[string]*breaker
	// diedAt records the last MarkDead per node, so a probe success
	// captured *before* the node died cannot resurrect it when its
	// result is folded in after the MarkDead (the dispatcher's report
	// is fresher than an in-flight probe).
	diedAt map[string]time.Time

	done chan struct{}
	stop sync.Once
	wg   sync.WaitGroup
}

// NewHealth builds a prober over the node set and starts it.
func NewHealth(nodes []string, opts HealthOptions) *Health {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	h := &Health{
		opts: opts,
		mProbes: reg.CounterVec("reds_cluster_probes_total",
			"Health probe outcomes per worker (result = ok|fail).", "worker", "result"),
		mBreaker: reg.CounterVec("reds_cluster_breaker_transitions_total",
			"Circuit-breaker state transitions per worker (state = closed|open|half-open).",
			"worker", "state"),
		ready:    make(chan struct{}),
		status:   make(map[string]*NodeStatus, len(nodes)),
		breakers: make(map[string]*breaker, len(nodes)),
		diedAt:   make(map[string]time.Time, len(nodes)),
		done:     make(chan struct{}),
	}
	for _, n := range nodes {
		h.status[n] = &NodeStatus{Node: n, Alive: true, Breaker: BreakerClosed}
		h.breakers[n] = &breaker{state: BreakerClosed}
	}
	reg.GaugeFunc("reds_cluster_alive_workers",
		"Workers whose most recent health probe succeeded.",
		func() float64 {
			var alive int
			for _, st := range h.Snapshot() {
				if st.Alive {
					alive++
				}
			}
			return float64(alive)
		})
	h.wg.Add(1)
	go h.loop()
	return h
}

// Close stops the prober.
func (h *Health) Close() {
	h.stop.Do(func() { close(h.done) })
	h.wg.Wait()
}

// Add starts probing a node. New nodes begin alive with a closed
// breaker, like the initial set. Adding a node that is already tracked
// is a no-op (in particular it does not reset an open breaker).
func (h *Health) Add(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.status[node]; ok {
		return
	}
	h.status[node] = &NodeStatus{Node: node, Alive: true, Breaker: BreakerClosed}
	h.breakers[node] = &breaker{state: BreakerClosed}
}

// Remove stops probing a node and forgets its state. Re-adding it later
// starts from a clean, closed breaker.
func (h *Health) Remove(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.status, node)
	delete(h.breakers, node)
	delete(h.diedAt, node)
}

// Ready reports whether the first probe round has completed — i.e. the
// Alive answers are observed, not the optimistic startup default.
func (h *Health) Ready() bool {
	select {
	case <-h.ready:
		return true
	default:
		return false
	}
}

func (h *Health) loop() {
	defer h.wg.Done()
	h.probeAll() // first round immediately, not one interval late
	h.readyOnce.Do(func() { close(h.ready) })
	t := time.NewTicker(h.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-h.done:
			return
		case <-t.C:
			h.probeAll()
		}
	}
}

// probeAll checks every node concurrently and folds the results in.
func (h *Health) probeAll() {
	h.mu.Lock()
	nodes := make([]string, 0, len(h.status))
	for n := range h.status {
		nodes = append(nodes, n)
	}
	h.mu.Unlock()

	var wg sync.WaitGroup
	for _, node := range nodes {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			started := h.opts.now()
			err := h.probe(node)
			result := "ok"
			if err != nil {
				result = "fail"
			}
			h.mProbes.With(node, result).Inc()
			h.observe(node, err, started)
		}(node)
	}
	wg.Wait()
}

// observe folds one probe (or dispatcher) outcome into the node's
// status through its circuit breaker.
func (h *Health) observe(node string, err error, started time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.status[node]
	b := h.breakers[node]
	if st == nil || b == nil { // removed while the probe was in flight
		return
	}
	now := h.opts.now()
	st.CheckedAt = now

	if err != nil {
		st.Alive = false
		st.Error = err.Error()
		// The first failure opens a closed breaker, and a failed trial
		// re-opens a half-open one with a longer cooldown. Failures of an
		// open breaker neither trip it again nor extend the cooldown —
		// the scheduled trial decides.
		if b.state != BreakerOpen {
			h.tripLocked(node, st, b, now)
		}
		return
	}

	// A success observed before a MarkDead is stale — the node
	// answered, then died. Discard it; the next probe round decides.
	if h.diedAt[node].After(started) {
		return
	}
	switch b.state {
	case BreakerOpen:
		if now.Before(b.retryAt) {
			// Still cooling down: the success does not rejoin the node;
			// it would re-admit a flapping worker instantly.
			return
		}
		h.setStateLocked(node, st, b, BreakerHalfOpen)
		b.successes = 0
		fallthrough
	case BreakerHalfOpen:
		b.successes++
		if b.successes < h.opts.SuccessThreshold {
			return // still on trial, still out of rotation
		}
		h.setStateLocked(node, st, b, BreakerClosed)
		b.trips = 0
	}
	st.Alive = true
	st.Error = ""
	st.RetryAt = time.Time{}
	b.retryAt = time.Time{}
}

// tripLocked opens a node's breaker and schedules the next trial.
func (h *Health) tripLocked(node string, st *NodeStatus, b *breaker, now time.Time) {
	h.setStateLocked(node, st, b, BreakerOpen)
	b.successes = 0
	b.trips++
	b.retryAt = now.Add(h.cooldown(b.trips))
	st.RetryAt = b.retryAt
}

// cooldown returns the jittered open-state cooldown for the given
// consecutive trip count: base doubling per trip, capped, then spread
// over [d/2, 3d/2) so a fleet-wide outage does not retry in lockstep.
func (h *Health) cooldown(trips int) time.Duration {
	d := h.opts.BreakerCooldown
	for i := 1; i < trips && d < breakerMaxCooldown; i++ {
		d *= 2
	}
	if d > breakerMaxCooldown {
		d = breakerMaxCooldown
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// setStateLocked records a breaker transition on the status and the
// transitions counter.
func (h *Health) setStateLocked(node string, st *NodeStatus, b *breaker, state string) {
	if b.state == state {
		return
	}
	b.state = state
	st.Breaker = state
	h.mBreaker.With(node, state).Inc()
}

// probe performs one healthz request.
func (h *Health) probe(node string) error {
	ctx, cancel := context.WithTimeout(context.Background(), h.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(node, "/")+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := h.opts.Client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &statusError{node: node, status: resp.Status}
	}
	return nil
}

type statusError struct {
	node   string
	status string
}

func (e *statusError) Error() string { return "healthz of " + e.node + " returned " + e.status }

// Alive reports whether the node answered its last probe and its
// breaker is closed (unknown nodes are dead).
func (h *Health) Alive(node string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.status[node]
	return ok && st.Alive
}

// MarkDead flags a node down immediately — dispatcher feedback for an
// execution that failed with ErrUnavailable, faster than the next probe
// round. The failure counts against the node's breaker like a probe
// failure, so it also (re)opens the breaker at the failure threshold.
func (h *Health) MarkDead(node string, reason error) {
	if reason == nil {
		reason = errors.New("marked dead by dispatcher")
	}
	now := h.opts.now()
	h.mu.Lock()
	if _, ok := h.status[node]; !ok {
		h.mu.Unlock()
		return
	}
	h.diedAt[node] = now
	h.mu.Unlock()
	h.observe(node, reason, now)
}

// Snapshot returns every node's status, sorted by node name.
func (h *Health) Snapshot() []NodeStatus {
	h.mu.Lock()
	out := make([]NodeStatus, 0, len(h.status))
	for _, st := range h.status {
		out = append(out, *st)
	}
	h.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
}
