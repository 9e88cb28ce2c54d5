package cluster

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/engine/store"
)

// TestClusterCheckpointedFailover is the acceptance flow for elastic
// failover: a multi-variant job runs on its ring owner, the owner is
// killed after at least one variant has checkpointed, and the successor
// must resume from the forwarded checkpoint — finishing the job without
// a second train pass, relabeling from the checkpointed model and
// re-running only unfinished variants.
func TestClusterCheckpointedFailover(t *testing.T) {
	w1, w2 := startWorker(t), startWorker(t)
	workers := map[string]*testWorker{w1.srv.URL: w1, w2.srv.URL: w2}

	disp, err := NewDispatcher([]string{w1.srv.URL, w2.srv.URL}, DispatcherOptions{
		Replicas: 64,
		Health:   HealthOptions{Interval: 100 * time.Millisecond, Timeout: time.Second},
	})
	if err != nil {
		t.Fatalf("dispatcher: %v", err)
	}
	t.Cleanup(disp.Close)
	// The gateway engine gets a store so the in-flight checkpoint stream
	// is observable: the test keys the kill off the persisted checkpoint.
	st := store.NewMem()
	gw, err := engine.New(engine.Options{Workers: 2, Executor: disp, Store: st})
	if err != nil {
		t.Fatalf("gateway engine: %v", err)
	}
	t.Cleanup(gw.Close)

	// Three subgroup-discovery variants over one metamodel family: they
	// share a single train/sample/label pipeline, so the checkpoint after
	// the first finished variant lets a cold successor skip training.
	req := engine.Request{
		Dataset: e2eDataset(300, 4),
		L:       20000,
		Seed:    3,
		SD:      []string{"prim", "bumping", "bi"},
	}
	ownerURL, _ := disp.Route(req.ShardKey())
	owner := workers[ownerURL]
	var survivorURL string
	for url := range workers {
		if url != ownerURL {
			survivorURL = url
		}
	}

	id, err := gw.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Kill the owner as soon as a checkpoint with a finished variant has
	// been persisted gateway-side — mid-discover, with work left to do.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if raw, ok, _ := st.GetCheckpoint(string(id)); ok {
			var cp engine.Checkpoint
			if err := json.Unmarshal(raw, &cp); err != nil {
				t.Fatalf("persisted checkpoint unreadable: %v", err)
			}
			if len(cp.Variants) >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint with a finished variant ever persisted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	owner.stop()

	snap := waitGatewayTerminal(t, gw, id, 180*time.Second)
	if snap.Status != engine.StatusDone {
		t.Fatalf("status after checkpointed failover = %s (err %q), want done", snap.Status, snap.Error)
	}
	if _, failovers := disp.Stats(); failovers != 1 {
		t.Fatalf("failovers = %d, want 1", failovers)
	}
	if started, _ := workers[survivorURL].exec.Executions(); started != 1 {
		t.Fatalf("survivor executions = %d, want 1", started)
	}

	res, err := gw.Result(id)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if len(res.Variants) != 3 {
		t.Fatalf("got %d variants, want 3", len(res.Variants))
	}
	resumed := 0
	for _, vr := range res.Variants {
		if vr.Error != "" {
			t.Fatalf("variant %s/%s failed: %s", vr.Metamodel, vr.SD, vr.Error)
		}
		if vr.Resumed {
			resumed++
		}
	}
	if resumed < 1 {
		t.Fatalf("no variant marked resumed — the successor started from scratch")
	}

	// The stitched trace is the forwarded checkpoint's spans plus the
	// successor's re-runs. Concurrent sibling variants close their own
	// train/label spans (cache waits), so the checkpoint may carry up to
	// one per variant. The successor must add no train span (trains
	// within the per-variant bound), adds one label span per variant it
	// re-runs (relabeling from the decoded model is what a resume does),
	// and must not repeat a discover the checkpoint already holds
	// (exactly one per variant).
	trains, labels, discovers := 0, 0, 0
	for _, ts := range snap.Timings {
		switch {
		case strings.HasPrefix(ts.Stage, "train/"):
			trains++
		case strings.HasPrefix(ts.Stage, "label/"):
			labels++
		case strings.HasPrefix(ts.Stage, "discover/"):
			discovers++
		}
	}
	if rerun := 3 - resumed; trains > 3 || labels > 3+rerun || discovers != 3 {
		t.Fatalf("trace after failover: %d train / %d label / %d discover spans, want ≤3/≤%d/3 (no re-trained model): %+v",
			trains, labels, discovers, 3+rerun, snap.Timings)
	}

	// Terminal jobs shed their checkpoint. The engine deletes it right
	// after persisting the terminal record, which may trail the
	// snapshot's terminal status by a moment.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if _, ok, _ := st.GetCheckpoint(string(id)); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint survived job completion")
		}
	}
}
