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
// open = tripped, node out of rotation until the cooldown elapses and a
// probe succeeds.
const (
	BreakerClosed = "closed"
	BreakerOpen   = "open"
)

// breakerCooldown is the open-state cooldown before a probe success can
// close the breaker, jittered over [d/2, 3d/2) so a fleet-wide outage
// does not retry in lockstep.
const breakerCooldown = 500 * time.Millisecond

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
	// Breaker is the node's circuit-breaker state (closed or open). A
	// node is only Alive with a closed breaker.
	Breaker string `json:"breaker"`
	// RetryAt is when an open breaker's cooldown ends, after which the
	// next probe success closes it; zero unless the breaker is open.
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
	if o.now == nil {
		o.now = time.Now
	}
	return o
}

// Health probes each worker's GET /v1/healthz on a fixed interval and
// remembers who answers. Nodes start alive (optimistically — before the
// first probe completes the dispatcher would otherwise have nowhere to
// send work), and a dispatcher that watches an execution fail with
// ErrUnavailable can MarkDead a node immediately instead of waiting for
// the next probe round. Each node carries a circuit breaker: a failure
// opens it for a jittered cooldown, and the first probe success after
// the cooldown closes it again — so a flapping worker cannot rejoin the
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

	mu     sync.Mutex
	status map[string]*NodeStatus
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
			"Circuit-breaker state transitions per worker (state = closed|open).",
			"worker", "state"),
		ready:  make(chan struct{}),
		status: make(map[string]*NodeStatus, len(nodes)),
		diedAt: make(map[string]time.Time, len(nodes)),
		done:   make(chan struct{}),
	}
	for _, n := range nodes {
		h.status[n] = &NodeStatus{Node: n, Alive: true, Breaker: BreakerClosed}
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
}

// Remove stops probing a node and forgets its state. Re-adding it later
// starts from a clean, closed breaker.
func (h *Health) Remove(node string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.status, node)
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
	if st == nil { // removed while the probe was in flight
		return
	}
	now := h.opts.now()
	st.CheckedAt = now

	if err != nil {
		st.Alive = false
		st.Error = err.Error()
		// The first failure opens a closed breaker. Failures of an open
		// one neither trip it again nor extend the cooldown.
		if st.Breaker != BreakerOpen {
			h.setBreakerLocked(node, st, BreakerOpen)
			st.RetryAt = now.Add(breakerCooldown/2 + time.Duration(rand.Int63n(int64(breakerCooldown))))
		}
		return
	}

	// A success observed before a MarkDead is stale — the node
	// answered, then died. Discard it; the next probe round decides.
	if h.diedAt[node].After(started) {
		return
	}
	if st.Breaker == BreakerOpen && now.Before(st.RetryAt) {
		// Still cooling down: the success does not rejoin the node; it
		// would re-admit a flapping worker instantly.
		return
	}
	h.setBreakerLocked(node, st, BreakerClosed)
	st.Alive = true
	st.Error = ""
	st.RetryAt = time.Time{}
}

// setBreakerLocked records a breaker transition on the status and the
// transitions counter.
func (h *Health) setBreakerLocked(node string, st *NodeStatus, state string) {
	if st.Breaker == state {
		return
	}
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
// round. The failure counts like a probe failure, so it also opens the
// node's breaker.
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
