package engine

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/metamodel"
)

// testDataset builds a small labeled set with a crisp corner scenario:
// y = 1 iff x0 < 0.4 and x1 < 0.4.
func testDataset(n int, rng *rand.Rand) *dataset.Dataset {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if x[i][0] < 0.4 && x[i][1] < 0.4 {
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

// newTestEngine is New with the error path folded into the test.
func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func waitTerminal(t *testing.T, e *Engine, id JobID, timeout time.Duration) Snapshot {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		snap, ok := e.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if snap.Status.Terminal() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, snap.Status, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobLifecycle(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	defer e.Close()

	d := testDataset(300, rand.New(rand.NewSource(1)))
	id, err := e.Submit(Request{Dataset: d, L: 3000, Seed: 7})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	snap := waitTerminal(t, e, id, 60*time.Second)
	if snap.Status != StatusDone {
		t.Fatalf("status = %s (err %q), want done", snap.Status, snap.Error)
	}
	if snap.StartedAt == nil || snap.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", snap)
	}
	if snap.LabelDone != snap.LabelTotal || snap.LabelTotal != 3000 {
		t.Fatalf("label progress %d/%d, want 3000/3000", snap.LabelDone, snap.LabelTotal)
	}
	if snap.VariantsDone != 1 || snap.VariantsTotal != 1 {
		t.Fatalf("variants %d/%d, want 1/1", snap.VariantsDone, snap.VariantsTotal)
	}
	if snap.Request.Dataset != nil {
		t.Errorf("snapshot echoes the full inline dataset")
	}
	if snap.DatasetN != 300 || snap.DatasetM != 3 {
		t.Errorf("dataset summary = %dx%d, want 300x3", snap.DatasetN, snap.DatasetM)
	}

	res, err := e.Result(id)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if res.Best.Box == nil || res.Best.Rule == "" {
		t.Fatalf("missing best box/rule: %+v", res.Best)
	}
	if res.Best.Precision < 0.5 {
		t.Errorf("precision = %v, want a crisp corner scenario found", res.Best.Precision)
	}
	if res.Best.Recall <= 0 || res.Best.Recall > 1 {
		t.Errorf("recall = %v out of range", res.Best.Recall)
	}
	if res.DatasetHash != d.Hash() {
		t.Errorf("dataset hash mismatch")
	}
}

func TestMultiVariantRanking(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	defer e.Close()

	d := testDataset(250, rand.New(rand.NewSource(2)))
	id, err := e.Submit(Request{
		Dataset:    d,
		L:          1500,
		Metamodels: []string{"rf", "xgb"},
		SD:         []string{"prim", "bi"},
		Seed:       3,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	snap := waitTerminal(t, e, id, 120*time.Second)
	if snap.Status != StatusDone {
		t.Fatalf("status = %s (err %q), want done", snap.Status, snap.Error)
	}
	res, err := e.Result(id)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if len(res.Variants) != 4 {
		t.Fatalf("got %d variants, want 4", len(res.Variants))
	}
	first := res.Variants[0]
	if res.Best.Rule != first.Rule || res.Best.Metamodel != first.Metamodel || res.Best.SD != first.SD {
		t.Errorf("best is not the first ranked variant")
	}
	for i := 1; i < len(res.Variants); i++ {
		a, b := res.Variants[i-1], res.Variants[i]
		if a.Error == "" && b.Error == "" && a.WRAcc < b.WRAcc {
			t.Errorf("ranking violated at %d: %v < %v", i, a.WRAcc, b.WRAcc)
		}
	}
	// Each metamodel family trains once and is shared by its SD
	// variants: 2 families × 2 SD algorithms → 2 misses, 2 hits.
	cs := e.CacheStats()
	if cs.Misses != 2 || cs.Hits != 2 {
		t.Errorf("cache stats = %d hits / %d misses, want 2/2 (family-shared training)", cs.Hits, cs.Misses)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	defer e.Close()

	d := testDataset(300, rand.New(rand.NewSource(3)))
	// Occupy the single worker, then cancel a job stuck behind it.
	blocker, err := e.Submit(Request{Dataset: d, L: 400000, Seed: 1})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	queued, err := e.Submit(Request{Dataset: d, L: 1000, Seed: 2})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}
	if !e.Cancel(queued) {
		t.Fatalf("cancel of queued job reported false")
	}
	snap, _ := e.Job(queued)
	if snap.Status != StatusCanceled {
		t.Fatalf("queued job status = %s, want canceled", snap.Status)
	}
	if _, err := e.Result(queued); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("result of canceled job: err = %v, want canceled error", err)
	}
	e.Cancel(blocker)
	waitTerminal(t, e, blocker, 60*time.Second)
}

func TestCancelRunningJob(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	defer e.Close()

	d := testDataset(300, rand.New(rand.NewSource(4)))
	// A huge pseudo-label sample keeps the labeling stage busy long
	// enough to cancel mid-flight.
	id, err := e.Submit(Request{Dataset: d, L: 2000000, Seed: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		snap, _ := e.Job(id)
		if snap.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (status %s)", snap.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !e.Cancel(id) {
		t.Fatalf("cancel reported false for a running job")
	}
	snap := waitTerminal(t, e, id, 60*time.Second)
	if snap.Status != StatusCanceled {
		t.Fatalf("status = %s, want canceled", snap.Status)
	}
}

func TestMetamodelCacheHit(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	defer e.Close()

	d := testDataset(250, rand.New(rand.NewSource(5)))
	req := Request{Dataset: d, L: 1000, Seed: 9}

	first, err := e.Submit(req)
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if snap := waitTerminal(t, e, first, 60*time.Second); snap.Status != StatusDone {
		t.Fatalf("job 1: %s (%s)", snap.Status, snap.Error)
	}
	res1, _ := e.Result(first)
	if res1.Best.CacheHit {
		t.Fatalf("first run reported a cache hit")
	}

	second, err := e.Submit(req)
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if snap := waitTerminal(t, e, second, 60*time.Second); snap.Status != StatusDone {
		t.Fatalf("job 2: %s (%s)", snap.Status, snap.Error)
	}
	res2, _ := e.Result(second)
	if !res2.Best.CacheHit {
		t.Fatalf("second identical run missed the cache")
	}
	if res1.Best.Rule != res2.Best.Rule {
		t.Errorf("cached rerun changed the scenario: %q vs %q", res1.Best.Rule, res2.Best.Rule)
	}
	cs := e.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/1", cs.Hits, cs.Misses)
	}

	// A different seed must not share the cache entry.
	req.Seed = 10
	third, err := e.Submit(req)
	if err != nil {
		t.Fatalf("submit 3: %v", err)
	}
	if snap := waitTerminal(t, e, third, 60*time.Second); snap.Status != StatusDone {
		t.Fatalf("job 3: %s (%s)", snap.Status, snap.Error)
	}
	res3, _ := e.Result(third)
	if res3.Best.CacheHit {
		t.Errorf("different seed hit the cache")
	}
}

func TestSubmitValidation(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	defer e.Close()

	cases := []Request{
		{}, // no data source
		{Function: "no-such-function"},
		{Function: "morris", Dataset: testDataset(10, rand.New(rand.NewSource(1)))},
		{Function: "morris", Metamodels: []string{"bogus"}},
		{Function: "morris", SD: []string{"bogus"}},
		{Function: "morris", Sampler: "bogus"},
		{Function: "morris", N: -1},
		{Dataset: &dataset.Dataset{}},
		{Dataset: dataset.MustNew([][]float64{{math.NaN(), 1}}, []float64{1})},
		{Dataset: dataset.MustNew([][]float64{{0, 1}}, []float64{math.Inf(1)})},
		{Dataset: &dataset.Dataset{X: [][]float64{{0, 1}, {2}}, Y: []float64{0, 1}}}, // ragged rows
		{Dataset: &dataset.Dataset{X: [][]float64{{0, 1}, {2, 3}}, Y: []float64{0}}}, // fewer labels than rows
	}
	for i, req := range cases {
		if _, err := e.Submit(req); err == nil {
			t.Errorf("case %d: submit accepted invalid request %+v", i, req)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, QueueSize: 1})
	defer e.Close()

	d := testDataset(300, rand.New(rand.NewSource(6)))
	slow := Request{Dataset: d, L: 400000, Seed: 1}
	// First job occupies the worker (possibly after a brief queue stay),
	// so keep submitting until the bounded queue rejects one.
	var sawFull bool
	var ids []JobID
	for i := 0; i < 4; i++ {
		id, err := e.Submit(slow)
		if err != nil {
			if !strings.Contains(err.Error(), "queue full") {
				t.Fatalf("unexpected submit error: %v", err)
			}
			sawFull = true
			break
		}
		ids = append(ids, id)
	}
	if !sawFull {
		t.Fatalf("bounded queue never rejected a submission")
	}
	for _, id := range ids {
		e.Cancel(id)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Budget fits two mock models (1 MiB default weight each).
	c := newByteCache(2<<20, 0, modelSizeBytes, nil, "model")
	for _, key := range []string{"a", "b", "c", "a"} {
		c.getOrCompute(key, func() (metamodel.Model, error) { return mockModel{}, nil })
	}
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("cache len = %d, want 2", n)
	}
	// "b" was evicted by "c"; "a" was re-trained after eviction.
	cs := c.Stats()
	if cs.Hits != 0 || cs.Misses != 4 {
		t.Fatalf("stats = %d/%d, want 0 hits / 4 misses", cs.Hits, cs.Misses)
	}
	if cs.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2 (b then the stale a)", cs.Evictions)
	}
	if cs.Bytes != 2<<20 || cs.Entries != 2 {
		t.Fatalf("contents = %d entries / %d bytes, want 2 / %d", cs.Entries, cs.Bytes, 2<<20)
	}
}

// mockModel reports no size, so the cache charges it
// defaultModelBytes.
type mockModel struct{}

func (mockModel) PredictProbBatchInto(dst []float64, _ [][]float64)  { clear(dst) }
func (mockModel) PredictLabelBatchInto(dst []float64, _ [][]float64) { clear(dst) }
func (mockModel) ApproxMemoryBytes() int64                           { return 0 }

// sizedModel reports an explicit approximate size.
type sizedModel struct {
	mockModel
	size int64
}

func (m sizedModel) ApproxMemoryBytes() int64 { return m.size }

func TestCacheSizeWeightedEviction(t *testing.T) {
	c := newByteCache(100, 0, modelSizeBytes, nil, "model")
	add := func(key string, size int64) {
		c.getOrCompute(key, func() (metamodel.Model, error) { return sizedModel{size: size}, nil })
	}
	add("small-1", 40)
	add("small-2", 40)
	if cs := c.Stats(); cs.Entries != 2 || cs.Bytes != 80 {
		t.Fatalf("contents = %+v, want 2 entries / 80 bytes", cs)
	}
	// A 90-byte model displaces both small ones: eviction is by weight,
	// not count.
	add("big", 90)
	cs := c.Stats()
	if cs.Entries != 1 || cs.Bytes != 90 || cs.Evictions != 2 {
		t.Fatalf("after big insert: %+v, want 1 entry / 90 bytes / 2 evictions", cs)
	}
	if _, hit, _ := c.getOrCompute("big", nil); !hit {
		t.Fatalf("big model was evicted by its own insert")
	}
	// An oversized model is cached alone rather than thrashing.
	add("huge", 1000)
	if cs := c.Stats(); cs.Entries != 1 || cs.Bytes != 1000 {
		t.Fatalf("oversized model not cached alone: %+v", cs)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := newByteCache(1<<20, time.Minute, modelSizeBytes, nil, "model")
	now := time.Unix(1000, 0)
	c.now = func() time.Time { return now }

	c.getOrCompute("k", func() (metamodel.Model, error) { return sizedModel{size: 10}, nil })
	if _, hit, _ := c.getOrCompute("k", nil); !hit {
		t.Fatalf("fresh entry missed")
	}
	now = now.Add(61 * time.Second)
	trained := false
	c.getOrCompute("k", func() (metamodel.Model, error) {
		trained = true
		return sizedModel{size: 10}, nil
	})
	if !trained {
		t.Fatalf("expired entry served from cache")
	}
	cs := c.Stats()
	if cs.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (TTL expiry)", cs.Evictions)
	}
	if cs.Hits != 1 || cs.Misses != 2 {
		t.Fatalf("stats = %d hits / %d misses, want 1/2", cs.Hits, cs.Misses)
	}
}
