package engine

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/telemetry"
)

// CacheStats are cumulative counters of one byte-weighted cache (the
// metamodel, pseudo-label and rule-set caches each report their own),
// exposed on /v1/healthz.
type CacheStats struct {
	// Hits and Misses count lookups. A caller that waited on another's
	// in-flight computation counts as a hit (it did not compute); an
	// entry past its TTL counts as a miss.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the byte budget or expired by
	// the TTL.
	Evictions int64 `json:"evictions"`
	// Entries and Bytes describe the current contents (Bytes is the sum
	// of the entries' approximate sizes).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// byteCache is an LRU cache bounded by the approximate total byte size
// of the cached values rather than their count, with singleflight
// deduplication of concurrent computations and an optional TTL. The
// executor keeps one per artifact kind: trained models, pseudo-labeled
// datasets and distilled rule sets (their keys are built in
// runVariant). A TTL expires entries
// a fixed time after they were computed, so a long-lived worker
// eventually drops artifacts of datasets nobody asks about even when
// the byte budget never fills.
//
// Counters and size gauges are telemetry instruments registered under
// reds_cache_*{cache=<label>}. They are the single source of truth:
// Stats() (which /v1/healthz serves) reads the same registry
// instruments /metrics exposes, so the two surfaces cannot drift.
type byteCache[V any] struct {
	mu       sync.Mutex
	maxBytes int64
	ttl      time.Duration
	size     func(V) int64    // a value's approximate byte weight
	now      func() time.Time // injectable for TTL tests
	entries  map[string]*list.Element
	order    *list.List // front = most recent
	inflight map[string]*call[V]
	bytes    int64

	hits        *telemetry.Counter
	misses      *telemetry.Counter
	evictions   *telemetry.Counter
	sizeEntries *telemetry.Gauge
	sizeBytes   *telemetry.Gauge
}

type entry[V any] struct {
	key        string
	value      V
	size       int64
	computedAt time.Time
}

type call[V any] struct {
	done  chan struct{}
	value V
	err   error
}

// newByteCache builds a cache that weighs each value with size and
// whose instruments live in reg under the given cache label ("model",
// "label" or "ruleset"). A nil reg gets a private registry —
// instruments still work, nothing is exposed.
func newByteCache[V any](maxBytes int64, ttl time.Duration, size func(V) int64, reg *telemetry.Registry, label string) *byteCache[V] {
	if maxBytes < 1 {
		maxBytes = 256 << 20
	}
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &byteCache[V]{
		maxBytes: maxBytes,
		ttl:      ttl,
		size:     size,
		now:      time.Now,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]*call[V]),
		hits: reg.CounterVec("reds_cache_hits_total",
			"Cache lookups served from the cache (including waits on an in-flight computation).", "cache").With(label),
		misses: reg.CounterVec("reds_cache_misses_total",
			"Cache lookups that had to compute (TTL-expired entries count as misses).", "cache").With(label),
		evictions: reg.CounterVec("reds_cache_evictions_total",
			"Cache entries dropped by the byte budget or expired by the TTL.", "cache").With(label),
		sizeEntries: reg.GaugeVec("reds_cache_size_entries",
			"Entries currently cached.", "cache").With(label),
		sizeBytes: reg.GaugeVec("reds_cache_size_bytes",
			"Approximate bytes currently cached.", "cache").With(label),
	}
}

// syncSizeLocked mirrors the current entry count and byte total into
// the size gauges. Caller holds mu.
func (c *byteCache[V]) syncSizeLocked() {
	c.sizeEntries.Set(float64(c.order.Len()))
	c.sizeBytes.Set(float64(c.bytes))
}

// getOrCompute returns the cached value for key, or runs compute once
// — even under concurrent callers — and caches its result, weighed by
// the cache's size function. hit reports whether the value came from
// the cache (a caller that waited on another's in-flight computation
// counts as a hit: it did not compute). A waiter whose in-flight
// computation failed with a context error retries the computation
// itself — the canceled caller's deadline must not poison an
// unrelated caller that shares the key (the pseudo-label stage
// computes under the first job's context; a second job waiting on it
// survives the first job's cancellation).
func (c *byteCache[V]) getOrCompute(key string, compute func() (V, error)) (v V, hit bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			e := el.Value.(*entry[V])
			if c.ttl > 0 && c.now().Sub(e.computedAt) >= c.ttl {
				c.removeLocked(el)
				c.evictions.Inc()
			} else {
				c.order.MoveToFront(el)
				c.hits.Inc()
				c.mu.Unlock()
				return e.value, true, nil
			}
		}
		if cl, ok := c.inflight[key]; ok {
			c.mu.Unlock()
			<-cl.done
			if cl.err != nil && (errors.Is(cl.err, context.Canceled) || errors.Is(cl.err, context.DeadlineExceeded)) {
				continue // the computing caller was canceled, not us: retry
			}
			// Counted only now: a waiter whose computation was canceled
			// re-enters the loop and may end up computing itself, and
			// must not have already booked a hit for that lookup.
			c.hits.Inc()
			return cl.value, true, cl.err
		}
		cl := &call[V]{done: make(chan struct{})}
		c.inflight[key] = cl
		c.misses.Inc()
		c.mu.Unlock()

		cl.value, cl.err = compute()
		close(cl.done)
		var size int64
		if cl.err == nil {
			size = c.size(cl.value)
		}

		c.mu.Lock()
		delete(c.inflight, key)
		if cl.err == nil {
			c.insert(key, cl.value, size)
		}
		c.mu.Unlock()
		return cl.value, false, cl.err
	}
}

// insert adds the entry and evicts least-recently-used entries until
// the byte budget holds again. The newly inserted entry itself is never
// evicted — a single value larger than the whole budget is cached
// alone rather than thrashing. Caller holds mu.
func (c *byteCache[V]) insert(key string, v V, size int64) {
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[V])
		c.bytes += size - e.size
		e.value, e.size, e.computedAt = v, size, c.now()
		c.order.MoveToFront(el)
	} else {
		el := c.order.PushFront(&entry[V]{key: key, value: v, size: size, computedAt: c.now()})
		c.entries[key] = el
		c.bytes += size
	}
	for c.bytes > c.maxBytes && c.order.Len() > 1 {
		c.removeLocked(c.order.Back())
		c.evictions.Inc()
	}
	c.syncSizeLocked()
}

// removeLocked drops one entry and its byte weight. Caller holds mu.
func (c *byteCache[V]) removeLocked(el *list.Element) {
	e := el.Value.(*entry[V])
	c.order.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
	c.syncSizeLocked()
}

// Stats returns cumulative counters and the current contents, read
// from the same telemetry instruments /metrics exposes.
func (c *byteCache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Entries:   c.order.Len(),
		Bytes:     c.bytes,
	}
}

// defaultModelBytes is the weight of a cached model that reports no
// size (the collapsed svm, which holds no support vectors). It is
// deliberately pessimistic (1 MiB).
const defaultModelBytes = 1 << 20

// modelSizeBytes is a trained model's cache weight: its own estimate,
// or defaultModelBytes when that is 0.
func modelSizeBytes(m metamodel.Model) int64 {
	if n := m.ApproxMemoryBytes(); n > 0 {
		return n
	}
	return defaultModelBytes
}

// datasetBytes is the byte weight of a cached pseudo-labeled dataset:
// the flat rows, the labels, and the row headers. The lazily derived
// columnar views (which a cached dataset shared by several variants
// will typically materialize) roughly double the X weight again, so
// they are charged up front.
func datasetBytes(d *dataset.Dataset) int64 {
	cells := int64(d.N()) * int64(d.M())
	const sliceHeader = 24
	return cells*8*2 + // X cells + columnar view
		int64(d.N())*8 + // Y
		int64(d.N()+d.M())*sliceHeader + // row + column headers
		int64(d.N())*int64(d.M())*8 // sorted index orders
}
