package engine

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/engine/store"
)

// countStages tallies the train and label spans of a trace.
func countStages(spans []StageTiming) (trains, labels int) {
	for _, ts := range spans {
		switch {
		case strings.HasPrefix(ts.Stage, "train/"):
			trains++
		case strings.HasPrefix(ts.Stage, "label/"):
			labels++
		}
	}
	return trains, labels
}

// TestCheckpointResumeAfterCrash is the failover/restart acceptance flow
// at the engine level: a job is executed partway (its checkpoint
// captured from the progress stream, as the dispatcher and the engine's
// store persistence do), the process "crashes" — simulated by planting
// the running record plus the checkpoint in a durable store — and the
// next engine must re-enqueue the job, resume it, and finish without
// re-running the variants the checkpoint already carries. A distilled
// job resumes with its distillation's report: fidelity and rules.
func TestCheckpointResumeAfterCrash(t *testing.T) {
	d := testDataset(250, rand.New(rand.NewSource(21)))
	for _, tc := range []struct{ name, kernel string }{{"full", ""}, {"distilled", "distilled"}} {
		t.Run(tc.name, func(t *testing.T) {
			checkResumeAfterCrash(t, Request{Dataset: d, L: 800, Seed: 5, SD: []string{"prim", "bumping", "bi"}, LabelKernel: tc.kernel})
		})
	}
}

func checkResumeAfterCrash(t *testing.T, req Request) {
	dir := t.TempDir()
	if err := req.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}

	// Phase 1: run the job directly on a LocalExecutor and cancel as
	// soon as the first checkpoint (>= 1 finished variant) appears.
	exec := NewLocalExecutor(LocalExecutorOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var captured *Checkpoint
	_, execErr := exec.Execute(ctx, req, func(p Progress) {
		if cp := p.Checkpoint; cp != nil {
			mu.Lock()
			if captured == nil || cp.Seq > captured.Seq {
				captured = cp
			}
			mu.Unlock()
			if len(cp.Variants) >= 1 {
				cancel()
			}
		}
	})
	mu.Lock()
	cp := captured
	mu.Unlock()
	if cp == nil || len(cp.Variants) == 0 {
		t.Fatalf("no checkpoint captured before cancellation (err=%v)", execErr)
	}
	finished := 0
	for _, vr := range cp.Variants {
		if vr.Error == "" {
			finished++
		}
	}
	if finished == 0 || finished == len(req.SD) {
		t.Fatalf("checkpoint carries %d of %d variants finished, want some but not all: %+v", finished, len(req.SD), cp.Variants)
	}
	if len(cp.Labeled["rf"].Data) == 0 {
		t.Fatalf("checkpoint inlines no labeled set, so the resume below would not read one")
	}

	// Phase 2: plant the crash footprint — a running record plus the
	// checkpoint — exactly what the engine persists while executing.
	fs := openFS(t, dir)
	reqJSON, _ := json.Marshal(req)
	rawCP, _ := json.Marshal(cp)
	now := time.Now()
	if err := fs.PutJob(store.Record{
		ID:          "job-000003",
		Status:      string(StatusRunning),
		SubmittedAt: now.Add(-time.Minute),
		StartedAt:   now.Add(-50 * time.Second),
		Request:     reqJSON,
	}); err != nil {
		t.Fatalf("planting running record: %v", err)
	}
	if err := fs.PutCheckpoint("job-000003", rawCP); err != nil {
		t.Fatalf("planting checkpoint: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}

	// Phase 3: recovery must resume, not orphan.
	e := newTestEngine(t, Options{Workers: 1, Store: openFS(t, dir)})
	defer e.Close()
	rec := e.Recovery()
	if rec.Resumed != 1 || rec.Reenqueued != 1 || rec.Orphaned != 0 {
		t.Fatalf("recovery stats = %+v, want 1 resumed / 1 reenqueued / 0 orphaned", rec)
	}
	snap := waitTerminal(t, e, "job-000003", 120*time.Second)
	if snap.Status != StatusDone {
		t.Fatalf("resumed job finished %s: %s", snap.Status, snap.Error)
	}
	res, err := e.Result("job-000003")
	if err != nil {
		t.Fatalf("result of resumed job: %v", err)
	}
	if len(res.Variants) != 3 {
		t.Fatalf("resumed job has %d variants, want 3", len(res.Variants))
	}
	resumed := 0
	for _, vr := range res.Variants {
		if vr.Resumed {
			resumed++
		}
		if vr.Error != "" {
			t.Fatalf("variant %s/%s failed after resume: %s", vr.Metamodel, vr.SD, vr.Error)
		}
	}
	if resumed != finished {
		t.Fatalf("%d variants marked resumed, want the checkpoint's %d finished ones", resumed, finished)
	}
	// The trace must be whole with no re-done work: the final trace is
	// the checkpoint's spans (concurrent sibling variants close their own
	// train/label spans, so the checkpoint may carry up to one per
	// variant) plus the re-run variants' discover spans — the resumed
	// execution must not add a single train or label span of its own.
	cpTrains, cpLabels := countStages(cp.Timings)
	trains, labels := countStages(snap.Timings)
	if trains != cpTrains || labels != cpLabels {
		t.Fatalf("resumed trace has %d train / %d label spans, want the checkpoint's %d / %d (no re-done work): %+v",
			trains, labels, cpTrains, cpLabels, snap.Timings)
	}
	discovers := 0
	for _, ts := range snap.Timings {
		if strings.HasPrefix(ts.Stage, "discover/") {
			discovers++
		}
	}
	if discovers != 3 {
		t.Fatalf("resumed trace has %d discover spans, want one per variant (3): %+v", discovers, snap.Timings)
	}

	// Resuming changes nothing but bookkeeping: the variants re-run from
	// the checkpoint's decoded labeled set, and the ones adopted from it,
	// equal an uninterrupted run of the same request.
	fresh, err := NewLocalExecutor(LocalExecutorOptions{}).Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if want := req.effectiveLabelKernel(); fresh.Best.LabelKernel != want {
		t.Fatalf("uninterrupted run labeled with %q (fallback %q), want %q", fresh.Best.LabelKernel, fresh.Best.FallbackReason, want)
	}
	if got, want := resultOutcome(t, res), resultOutcome(t, fresh); got != want {
		t.Fatalf("resumed result differs from an uninterrupted run:\nresumed: %s\nfresh:   %s", got, want)
	}

	waitCheckpointGone(t, e, "job-000003")
}

// waitCheckpointGone waits for a terminal job to shed its stored
// checkpoint, which the engine deletes right after persisting the
// terminal record.
func waitCheckpointGone(t *testing.T, e *Engine, id JobID) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, ok, _ := e.store.GetCheckpoint(string(id))
		if !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint survived job completion: %.200s", raw)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// resultOutcome renders what a job found — every variant's box, rule,
// WRAcc, PR-AUC and trajectory — leaving out the fields that describe
// how it got there: elapsed time, cache hits and resumption.
func resultOutcome(t *testing.T, res *Result) string {
	t.Helper()
	out := *res
	out.ElapsedSeconds = 0
	out.Variants = append([]VariantResult(nil), res.Variants...)
	strip := func(vr *VariantResult) {
		vr.CacheHit, vr.LabelCacheHit, vr.Resumed = false, false, false
	}
	strip(&out.Best)
	for i := range out.Variants {
		strip(&out.Variants[i])
	}
	raw, err := json.Marshal(&out)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(raw)
}

// TestCheckpointRejectedOnDatasetMismatch plants a checkpoint whose
// DatasetHash does not match the request's dataset: the executor must
// discard it and run the job from scratch rather than trust stale
// variant results.
func TestCheckpointRejectedOnDatasetMismatch(t *testing.T) {
	dir := t.TempDir()
	d := testDataset(250, rand.New(rand.NewSource(22)))
	req := Request{Dataset: d, L: 800, Seed: 5}
	reqJSON, _ := json.Marshal(req)

	fs := openFS(t, dir)
	now := time.Now()
	if err := fs.PutJob(store.Record{
		ID:          "job-000001",
		Status:      string(StatusRunning),
		SubmittedAt: now.Add(-time.Minute),
		StartedAt:   now.Add(-50 * time.Second),
		Request:     reqJSON,
	}); err != nil {
		t.Fatalf("planting running record: %v", err)
	}
	stale := &Checkpoint{
		Seq:         9,
		DatasetHash: "not-the-real-hash",
		Variants:    []VariantResult{{Metamodel: "rf", SD: "prim", Rule: "stale"}},
	}
	rawCP, _ := json.Marshal(stale)
	if err := fs.PutCheckpoint("job-000001", rawCP); err != nil {
		t.Fatalf("planting checkpoint: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}

	e := newTestEngine(t, Options{Workers: 1, Store: openFS(t, dir)})
	defer e.Close()
	if rec := e.Recovery(); rec.Resumed != 1 {
		t.Fatalf("recovery stats = %+v, want the job re-enqueued for resume", rec)
	}
	snap := waitTerminal(t, e, "job-000001", 120*time.Second)
	if snap.Status != StatusDone {
		t.Fatalf("job finished %s: %s", snap.Status, snap.Error)
	}
	res, err := e.Result("job-000001")
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	for _, vr := range res.Variants {
		if vr.Resumed || vr.Rule == "stale" {
			t.Fatalf("mismatched checkpoint was trusted: %+v", vr)
		}
	}
}

// TestDrainLeavesQueuedJobsPending: during drain, running jobs get to
// finish (or are awaited) while dequeued-but-unstarted jobs stay
// pending for the next process.
func TestDrainLeavesQueuedJobsPending(t *testing.T) {
	st := store.NewMem()
	e := newTestEngine(t, Options{Workers: 1, Store: st})
	defer e.Close()

	d := testDataset(250, rand.New(rand.NewSource(23)))
	blocker, err := e.Submit(Request{Dataset: d, L: 2000000, Seed: 1})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if snap, _ := e.Job(blocker); snap.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	queued, err := e.Submit(Request{Dataset: d, L: 800, Seed: 2})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	// With the blocker still running, a short drain cannot complete.
	if e.Drain(50 * time.Millisecond) {
		t.Fatalf("drain reported complete while a job was running")
	}
	// Unblock: cancel the running job; drain now completes, and the
	// queued job — dequeued by the now-free worker — must stay pending.
	e.Cancel(blocker)
	if !e.Drain(30 * time.Second) {
		t.Fatalf("drain never completed after the blocker was canceled")
	}
	time.Sleep(50 * time.Millisecond) // give the worker time to dequeue and (correctly) skip it
	if snap, ok := e.Job(queued); !ok || snap.Status != StatusPending {
		t.Fatalf("queued job during drain = %+v, want pending", snap)
	}
	recs, _ := st.List()
	for _, rec := range recs {
		if rec.ID == string(queued) && rec.Status != string(StatusPending) {
			t.Fatalf("stored record of queued job = %s, want pending", rec.Status)
		}
	}
}

// checkpointSpy wraps an executor and records whether any progress
// report carried a checkpoint.
type checkpointSpy struct {
	Executor
	saw atomic.Bool
}

func (s *checkpointSpy) Execute(ctx context.Context, req Request, onProgress func(Progress)) (*Result, error) {
	return s.Executor.Execute(ctx, req, func(p Progress) {
		if p.Checkpoint != nil {
			s.saw.Store(true)
		}
		onProgress(p)
	})
}

// TestFinishedJobPinsNoCheckpoint: the engine persists checkpoints as
// they arrive, so a job's retained progress must not keep one (and the
// labeled datasets it inlines) alive until the job's TTL.
func TestFinishedJobPinsNoCheckpoint(t *testing.T) {
	spy := &checkpointSpy{Executor: NewLocalExecutor(LocalExecutorOptions{})}
	e := newTestEngine(t, Options{Workers: 1, Executor: spy})
	defer e.Close()
	id, err := e.Submit(Request{Dataset: testDataset(200, rand.New(rand.NewSource(24))), L: 600, Seed: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if snap := waitTerminal(t, e, id, 60*time.Second); snap.Status != StatusDone {
		t.Fatalf("job finished %s: %s", snap.Status, snap.Error)
	}
	if !spy.saw.Load() {
		t.Fatalf("the executor never reported a checkpoint; the test proves nothing")
	}
	e.mu.Lock()
	j := e.jobs[id]
	e.mu.Unlock()
	j.mu.Lock()
	cp := j.progress.Checkpoint
	j.mu.Unlock()
	if cp != nil {
		t.Fatalf("finished job still holds checkpoint seq %d", cp.Seq)
	}
}

// TestPreChangeCheckpointRunsCold: checkpoints once inlined labeled
// sets as JSON objects ({"x": [[...]], "y": [...]}), and later as bare
// binary blobs per family with their cache keys in maps of their own.
// Such a checkpoint — left in a durable store by an older build, or
// forwarded by a gateway of one — must be ignored, not trusted and not
// fatal: the job runs from scratch and ends done.
func TestPreChangeCheckpointRunsCold(t *testing.T) {
	d := testDataset(250, rand.New(rand.NewSource(25)))
	req := Request{Dataset: d, L: 800, Seed: 6, SD: []string{"prim", "bi"}}
	old := testDataset(20, rand.New(rand.NewSource(26)))
	blob, err := old.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	layouts := map[string]json.RawMessage{}
	for name, cp := range map[string]map[string]any{
		"json-sets": {"labeled": map[string]*dataset.Dataset{"rf": old}},
		"blob-sets": {"labeled": map[string][]byte{"rf": blob}, "model_keys": map[string]string{"rf": "m"}},
	} {
		// A variant the checkpoint claims finished: trusting the
		// checkpoint would adopt its "pre-change" rule verbatim.
		cp["seq"] = 2
		cp["dataset_hash"] = d.Hash()
		cp["variants"] = []VariantResult{{Metamodel: "rf", SD: "prim", Rule: "pre-change"}}
		cp["label_keys"] = map[string]string{"rf": "k"}
		raw, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		layouts[name] = raw
	}
	ranCold := func(t *testing.T, res *Result) {
		t.Helper()
		for _, vr := range res.Variants {
			if vr.Resumed || vr.Rule == "pre-change" || vr.Error != "" {
				t.Fatalf("variant %s/%s after a pre-change checkpoint: %+v", vr.Metamodel, vr.SD, vr)
			}
		}
	}

	t.Run("store", func(t *testing.T) {
		for name, preChange := range layouts {
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				fs := openFS(t, dir)
				reqJSON, _ := json.Marshal(req)
				now := time.Now()
				if err := fs.PutJob(store.Record{
					ID:          "job-000001",
					Status:      string(StatusRunning),
					SubmittedAt: now.Add(-time.Minute),
					StartedAt:   now.Add(-50 * time.Second),
					Request:     reqJSON,
				}); err != nil {
					t.Fatalf("planting running record: %v", err)
				}
				if err := fs.PutCheckpoint("job-000001", preChange); err != nil {
					t.Fatalf("planting checkpoint: %v", err)
				}
				if err := fs.Close(); err != nil {
					t.Fatalf("closing store: %v", err)
				}

				e := newTestEngine(t, Options{Workers: 1, Store: openFS(t, dir)})
				defer e.Close()
				if rec := e.Recovery(); rec.Resumed != 1 || rec.Orphaned != 0 {
					t.Fatalf("recovery stats = %+v, want the job recovered", rec)
				}
				snap := waitTerminal(t, e, "job-000001", 120*time.Second)
				if snap.Status != StatusDone {
					t.Fatalf("job finished %s: %s", snap.Status, snap.Error)
				}
				if trains, labels := countStages(snap.Timings); trains == 0 || labels == 0 {
					t.Fatalf("job did not run train and label itself: %+v", snap.Timings)
				}
				res, err := e.Result("job-000001")
				if err != nil {
					t.Fatalf("result: %v", err)
				}
				ranCold(t, res)
				waitCheckpointGone(t, e, "job-000001")
			})
		}
	})

	t.Run("worker", func(t *testing.T) {
		srv, _ := newTestWorker(t)
		remote := &RemoteExecutor{BaseURL: srv.URL}
		for name, preChange := range layouts {
			t.Run(name, func(t *testing.T) {
				var body map[string]json.RawMessage
				raw, _ := json.Marshal(req)
				if err := json.Unmarshal(raw, &body); err != nil {
					t.Fatal(err)
				}
				body["checkpoint"] = preChange
				raw, _ = json.Marshal(body)
				id, err := remote.start(context.Background(), raw)
				if err != nil {
					t.Fatalf("worker refused a request with a pre-change checkpoint: %v", err)
				}
				deadline := time.Now().Add(60 * time.Second)
				for {
					st, err := remote.poll(context.Background(), id)
					if err != nil {
						t.Fatalf("poll: %v", err)
					}
					if st.Status.Terminal() {
						if st.Status != StatusDone {
							t.Fatalf("execution finished %s: %s", st.Status, st.Error)
						}
						ranCold(t, st.Result)
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("execution never finished")
					}
					time.Sleep(5 * time.Millisecond)
				}
			})
		}
	})
}

// TestCheckpointRecorderLabeledSets: sibling variants that finish one
// family's label stage together record it once, and none of them
// publishes a snapshot naming the family without its labeled set;
// labeled sets are charged to the inline budget by encoded length, and
// a family past the budget keeps its key and report; a resumed
// execution carries the inbound bytes forward unchanged, decodes a set
// once for all its variants, hands back the set's kernel report, and
// treats data that does not decode as absent.
func TestCheckpointRecorderLabeledSets(t *testing.T) {
	labeled := testDataset(20000, rand.New(rand.NewSource(27)))
	size := int64(labeled.BinarySize())
	var published []*Checkpoint
	rec := newCheckpointRecorder(nil, "h", newProgressSink(func(p Progress) {
		published = append(published, p.Checkpoint) // the sink serializes callbacks
	}))
	rec.budgetLeft = size + 10

	report := KernelReport{LabelKernel: "distilled", LabelFidelity: 0.995, Ruleset: json.RawMessage(`{"rules":[]}`)}
	var wg sync.WaitGroup
	for _, sd := range []string{"prim", "bumping", "bi", "prim-bumping"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec.labelStageDone("rf", LabeledSet{Key: "l-rf", KernelReport: report}, labeled)
			rec.variantDone(VariantResult{Metamodel: "rf", SD: sd})
		}()
	}
	wg.Wait()
	rec.labelStageDone("xgb", LabeledSet{Key: "l-xgb", KernelReport: KernelReport{LabelKernel: "full"}}, labeled) // past the budget
	if len(published) != 6 {
		t.Fatalf("%d snapshots published, want one per family and one per variant (6)", len(published))
	}
	for _, cp := range published {
		if set, named := cp.Labeled["rf"]; named && int64(len(set.Data)) != size {
			t.Fatalf("snapshot %d names family rf but inlines %d of its %d bytes", cp.Seq, len(set.Data), size)
		}
	}
	if rec.budgetLeft != 10 {
		t.Fatalf("budget left = %d, want 10 after one %d-byte set", rec.budgetLeft, size)
	}
	last := published[5]
	blob := last.Labeled["rf"].Data
	if xgb := last.Labeled["xgb"]; xgb.Key != "l-xgb" || xgb.Data != nil || xgb.LabelKernel != "full" {
		t.Fatalf("family past the budget recorded as %+v, want its key and report without data", xgb)
	}

	inbound := *last
	inbound.Labeled = map[string]LabeledSet{
		"rf":  last.Labeled["rf"],
		"xgb": last.Labeled["xgb"],
		"svm": {Key: "l-svm", Data: []byte("not a dataset")},
	}
	res := newCheckpointRecorder(&inbound, "h", newProgressSink(nil))
	if &res.labeled["rf"].Data[0] != &blob[0] {
		t.Fatalf("inbound set was copied, not carried forward")
	}
	if want := int64(checkpointBytes - len(blob) - len("not a dataset")); res.budgetLeft != want {
		t.Fatalf("resumed budget left = %d, want %d", res.budgetLeft, want)
	}
	got := make([]*dataset.Dataset, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = res.resumeLabeled("l-rf")
		}()
	}
	wg.Wait()
	if got[0] == nil || got[0].Hash() != labeled.Hash() {
		t.Fatalf("resumed set does not match the labeled one")
	}
	for _, d := range got[1:] {
		if d != got[0] {
			t.Fatalf("variants decoded the set separately")
		}
	}
	if _, r := res.resumeLabeled("l-rf"); r.LabelKernel != report.LabelKernel ||
		r.LabelFidelity != report.LabelFidelity || string(r.Ruleset) != string(report.Ruleset) {
		t.Fatalf("resumed report = %+v, want %+v", r, report)
	}
	for _, key := range []string{"l-svm", "l-xgb"} {
		if d, _ := res.resumeLabeled(key); d != nil {
			t.Fatalf("%s resumed from data that is bad or absent", key)
		}
	}
}
