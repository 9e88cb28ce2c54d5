package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/engine"
)

func TestDispatcherMembership(t *testing.T) {
	d, fakes := newFakeCluster(t, "http://w1", "http://w2")
	base := d.Ring().Mutations()

	if err := d.AddWorker("http://w3"); err != nil {
		t.Fatalf("AddWorker: %v", err)
	}
	if err := d.AddWorker("http://w3"); err == nil {
		t.Fatalf("duplicate AddWorker accepted")
	}
	if d.Ring().Len() != 3 || len(d.Workers()) != 3 {
		t.Fatalf("ring after add: %d nodes, workers %v", d.Ring().Len(), d.Workers())
	}
	if !d.Health().Alive("http://w3") {
		t.Fatalf("added worker not alive")
	}

	// The new worker takes over its share of keys.
	for seed := int64(1); seed <= 80; seed++ {
		if _, err := d.Execute(context.Background(), testRequest(seed), nil); err != nil {
			t.Fatalf("execute seed %d: %v", seed, err)
		}
	}
	if fakes["http://w3"].Calls() == 0 {
		t.Fatalf("added worker received no traffic across 80 distinct keys")
	}

	if err := d.RemoveWorker("http://w3"); err != nil {
		t.Fatalf("RemoveWorker: %v", err)
	}
	if err := d.RemoveWorker("http://w3"); err == nil {
		t.Fatalf("removing an unknown worker succeeded")
	}
	frozen := fakes["http://w3"].Calls()
	for seed := int64(101); seed <= 160; seed++ {
		if _, err := d.Execute(context.Background(), testRequest(seed), nil); err != nil {
			t.Fatalf("execute seed %d: %v", seed, err)
		}
	}
	if got := fakes["http://w3"].Calls(); got != frozen {
		t.Fatalf("removed worker still dispatched to (%d → %d calls)", frozen, got)
	}
	if d.Health().Alive("http://w3") {
		t.Fatalf("removed worker still tracked as alive")
	}
	if churn := d.Ring().Mutations() - base; churn != 2 {
		t.Fatalf("ring churn = %d, want 2 (one add + one remove)", churn)
	}

	// The last worker cannot be removed: an empty ring routes nothing.
	if err := d.RemoveWorker("http://w1"); err != nil {
		t.Fatalf("removing second-to-last worker: %v", err)
	}
	if err := d.RemoveWorker("http://w2"); err == nil {
		t.Fatalf("removing the last worker succeeded")
	}
}

// cpFake is a worker double for checkpoint-forwarding tests: it records
// the checkpoint each incoming request carries, optionally emits one
// through the progress stream and then dies with ErrUnavailable.
type cpFake struct {
	node string
	emit *engine.Checkpoint // if set: report it, then fail unavailable

	mu  sync.Mutex
	got []*engine.Checkpoint
}

func (f *cpFake) Execute(ctx context.Context, req engine.Request, onProgress func(engine.Progress)) (*engine.Result, error) {
	f.mu.Lock()
	f.got = append(f.got, req.Checkpoint)
	f.mu.Unlock()
	if f.emit != nil {
		if onProgress != nil {
			onProgress(engine.Progress{Stage: "discover", Checkpoint: f.emit})
		}
		return nil, fmt.Errorf("fake %s died mid-job: %w", f.node, engine.ErrUnavailable)
	}
	return &engine.Result{DatasetHash: req.ShardKey()}, nil
}

func (f *cpFake) inbound() []*engine.Checkpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*engine.Checkpoint(nil), f.got...)
}

// TestDispatcherForwardsCheckpointOnFailover: the owner reports a
// checkpoint and dies; the successor's request must carry that
// checkpoint so it resumes instead of starting over.
func TestDispatcherForwardsCheckpointOnFailover(t *testing.T) {
	fakes := make(map[string]*cpFake)
	d, err := NewDispatcher([]string{"http://w1", "http://w2"}, DispatcherOptions{
		Replicas: 64,
		Health: HealthOptions{
			Interval: time.Hour,
			Client:   &http.Client{Transport: okTransport{}},
		},
		ExecutorFor: func(node string) engine.Executor {
			f := &cpFake{node: node}
			fakes[node] = f
			return f
		},
	})
	if err != nil {
		t.Fatalf("NewDispatcher: %v", err)
	}
	defer d.Close()

	req := testRequest(17)
	key := req.ShardKey()
	owner, _ := d.Route(key)
	cands := d.Ring().Candidates(key, 2)
	successor := cands[1]
	fakes[owner].emit = &engine.Checkpoint{Seq: 3, DatasetHash: "h", Variants: []engine.VariantResult{{Metamodel: "rf", SD: "prim"}}}

	var sawCheckpoint atomic.Bool
	res, err := d.Execute(context.Background(), req, func(p engine.Progress) {
		if p.Checkpoint != nil {
			sawCheckpoint.Store(true)
		}
	})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if res.DatasetHash != key {
		t.Fatalf("wrong result: %+v", res)
	}
	if got := fakes[owner].inbound(); len(got) != 1 || got[0] != nil {
		t.Fatalf("owner's first attempt carried a checkpoint: %+v", got)
	}
	got := fakes[successor].inbound()
	if len(got) != 1 || got[0] == nil || got[0].Seq != 3 {
		t.Fatalf("successor checkpoint = %+v, want the owner's seq-3 snapshot", got)
	}
	if !sawCheckpoint.Load() {
		t.Fatalf("checkpoint progress was not forwarded to the caller")
	}
}

// blockingTransport parks every probe until its context expires, so a
// probe round takes a deterministic, nonzero amount of time.
type blockingTransport struct{}

func (blockingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	<-r.Context().Done()
	return nil, r.Context().Err()
}

func TestHealthReadyAfterFirstRound(t *testing.T) {
	h := NewHealth([]string{"http://w1"}, HealthOptions{
		Interval: time.Hour,
		Timeout:  100 * time.Millisecond,
		Client:   &http.Client{Transport: blockingTransport{}},
	})
	defer h.Close()
	if h.Ready() {
		t.Fatalf("prober ready before the first round completed")
	}
	waitReady(t, h)
	// The round that made it ready also observed the node down.
	if h.Alive("http://w1") {
		t.Fatalf("unreachable node still alive after the first real round")
	}
}

// waitReady waits for the prober's first round. The breaker tests call
// it before driving the breaker by hand, so that round's probe success
// cannot land between their clock jump and their own observe calls.
func waitReady(t *testing.T, h *Health) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !h.Ready() {
		if time.Now().After(deadline) {
			t.Fatalf("prober never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBreakerLifecycle: a MarkDead opens the breaker for the jittered
// cooldown. A probe success inside it leaves the node out of rotation,
// the first one after it closes the breaker and rejoins the node, and
// the next failure opens it again.
func TestBreakerLifecycle(t *testing.T) {
	var nowNs atomic.Int64
	nowNs.Store(time.Now().UnixNano())
	clock := func() time.Time { return time.Unix(0, nowNs.Load()) }
	h := NewHealth([]string{"w"}, HealthOptions{
		Interval: time.Hour,
		Client:   &http.Client{Transport: okTransport{}},
		now:      clock,
	})
	defer h.Close()
	waitReady(t, h)

	opened := clock()
	h.MarkDead("w", errors.New("dispatch failed"))
	if h.Alive("w") {
		t.Fatalf("node alive right after MarkDead")
	}
	st := h.Snapshot()[0]
	if st.Breaker != BreakerOpen {
		t.Fatalf("after MarkDead: %+v, want an open breaker", st)
	}
	if cool := st.RetryAt.Sub(opened); cool < breakerCooldown/2 || cool >= 3*breakerCooldown/2 {
		t.Fatalf("cooldown = %v, want within [%v, %v)", cool, breakerCooldown/2, 3*breakerCooldown/2)
	}

	// A probe success during the cooldown must not resurrect the node.
	nowNs.Add(int64(breakerCooldown/2 - time.Millisecond))
	h.observe("w", nil, clock())
	if h.Alive("w") || h.Snapshot()[0].Breaker != BreakerOpen {
		t.Fatalf("node rejoined during the breaker cooldown")
	}

	// Past the longest jittered cooldown, one success closes the breaker.
	nowNs.Store(opened.Add(3 * breakerCooldown / 2).UnixNano())
	h.observe("w", nil, clock())
	if st := h.Snapshot()[0]; !st.Alive || st.Breaker != BreakerClosed || !st.RetryAt.IsZero() {
		t.Fatalf("breaker did not close after the cooldown: %+v", st)
	}

	// A flap: the next failure opens it again, for a fresh cooldown.
	h.observe("w", errors.New("flapped"), clock())
	if st := h.Snapshot()[0]; st.Alive || st.Breaker != BreakerOpen || !st.RetryAt.After(clock()) {
		t.Fatalf("flapping node not re-opened: %+v", st)
	}
}
