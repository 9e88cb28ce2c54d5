package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/ruleset"
	"github.com/reds-go/reds/internal/telemetry"
)

// Progress is a point-in-time view of a request's execution: the most
// recently entered pipeline stage plus the labeling and variant
// counters. Executors report it through the Execute callback; the
// engine folds it into job snapshots, and the internal execution API
// serves it to polling gateways.
type Progress struct {
	// Stage is the most recently entered pipeline stage across the
	// request's variants ("simulate", "train", "sample", "label",
	// "discover").
	Stage string `json:"stage,omitempty"`
	// LabelDone / LabelTotal aggregate pseudo-labeling progress over all
	// variants.
	LabelDone  int `json:"label_done"`
	LabelTotal int `json:"label_total"`
	// VariantsDone / VariantsTotal count finished variant sub-tasks.
	VariantsDone  int `json:"variants_done"`
	VariantsTotal int `json:"variants_total"`
	// Timings lists the pipeline spans closed so far, in completion
	// order: "simulate", then per variant "train/<mm>", "sample/<mm>",
	// "label/<mm>" and "discover/<mm>/<sd>". The slice is append-only
	// and each published value is an immutable snapshot — safe to hand
	// to concurrent readers. Because Progress travels through the
	// internal execution API, a worker's spans surface unchanged in the
	// gateway job's timings.
	Timings []StageTiming `json:"timings,omitempty"`
	// Checkpoint, when non-nil, is the newest resumable snapshot of the
	// execution (see Checkpoint). It rides the in-process progress
	// callback only — the field is excluded from JSON because the
	// internal execution API carries checkpoints out of band (a seq
	// number on the status poll plus a separate fetch), keeping the hot
	// polling path small.
	Checkpoint *Checkpoint `json:"-"`
}

// StageTiming is one closed span of a job's trace: a pipeline stage
// (optionally qualified by variant, like "discover/rf/prim") and its
// wall-clock duration. The engine prepends a "queue_wait" span for the
// time between submission and execution start.
type StageTiming struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// sameAs reports whether two progress snapshots are observably equal.
// Spans are append-only, so comparing lengths is exact; this replaces
// struct equality, which the Timings slice rules out.
func (p Progress) sameAs(q Progress) bool {
	return p.Stage == q.Stage &&
		p.LabelDone == q.LabelDone && p.LabelTotal == q.LabelTotal &&
		p.VariantsDone == q.VariantsDone && p.VariantsTotal == q.VariantsTotal &&
		len(p.Timings) == len(q.Timings) &&
		p.checkpointSeq() == q.checkpointSeq()
}

// checkpointSeq is the sequence number of the attached checkpoint (0
// when none), so sameAs treats a new snapshot as observable progress.
func (p Progress) checkpointSeq() uint64 {
	if p.Checkpoint == nil {
		return 0
	}
	return p.Checkpoint.Seq
}

// Executor is the execution layer of the engine: it runs one discovery
// request end to end and returns its result. The orchestration layer
// (Engine) owns everything around that call — the queue, the job
// lifecycle, persistence, TTL GC — and stays identical whether requests
// execute in-process (LocalExecutor), on a remote worker
// (RemoteExecutor), or across a consistent-hash cluster
// (internal/cluster.Dispatcher).
type Executor interface {
	// Execute runs the request to completion under ctx. onProgress, when
	// non-nil, receives monotone progress snapshots; it must be fast and
	// safe for concurrent use (executors may report from several
	// goroutines, but calls for one execution are serialized).
	// Cancelling ctx stops the execution at its next cancellation point
	// and returns ctx.Err().
	Execute(ctx context.Context, req Request, onProgress func(Progress)) (*Result, error)
}

// ErrUnavailable marks execution errors caused by the executing worker
// being unreachable or having lost the execution (crash, restart,
// network partition) — as opposed to the request itself failing. A
// dispatcher may safely re-route an execution that failed with
// errors.Is(err, ErrUnavailable) to another worker; any other error is
// a verdict about the request and must not be retried elsewhere.
var ErrUnavailable = errors.New("worker unavailable")

// ErrDeadlineExceeded marks executions that ran out of their request's
// wall-clock budget (Request.DeadlineSeconds). It is deliberately NOT
// ErrUnavailable: the job itself timed out, so a dispatcher must fail
// it rather than re-route it to burn another worker's time. The engine
// records such jobs as failed (not canceled) with the deadline reason.
var ErrDeadlineExceeded = errors.New("job deadline exceeded")

// ShardKey returns the consistent-hash routing key of the request: the
// SHA-256 content hash of the training data the request will run on.
// Requests over the same data map to the same key — and therefore to
// the same worker under consistent-hash routing — which keeps that
// worker's metamodel cache hot (repeated metamodel training over one
// dataset dominates REDS workloads). Inline datasets hash their
// content; function requests hash the tuple that determines the
// simulated training set (function, n, sampler, seed), with the
// engine's defaults applied so equivalent requests share a key.
func (r Request) ShardKey() string {
	if r.Dataset != nil {
		return r.Dataset.Hash()
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("fn=%s|n=%d|sampler=%s|seed=%d",
		r.Function, r.effectiveN(), r.effectiveSampler(), r.effectiveSeed())))
	return hex.EncodeToString(sum[:])
}

// The effective* accessors are the single home of the request defaults,
// shared by execution (run.go) and routing (ShardKey): if a default
// drifted between the two, equivalent requests would silently hash to
// different shard keys than the data they train on, defeating the
// cache-affinity routing.

// effectiveSeed is the seed the pipeline actually runs with.
func (r Request) effectiveSeed() int64 {
	if r.Seed == 0 {
		return 1
	}
	return r.Seed
}

// effectiveN is the number of simulations drawn from a function source.
func (r Request) effectiveN() int {
	if r.N == 0 {
		return 400
	}
	return r.N
}

// effectiveL is the pseudo-label sample size.
func (r Request) effectiveL() int {
	if r.L == 0 {
		return 10000
	}
	return r.L
}

// effectiveSampler is the sampler name with the default applied (the
// empty string already resolves to LHS in samplerByName; this exists so
// ShardKey hashes the same name the pipeline uses).
func (r Request) effectiveSampler() string {
	if r.Sampler == "" {
		return "lhs"
	}
	return r.Sampler
}

// effectiveLabelKernel is the requested labeling kernel with the
// default applied.
func (r Request) effectiveLabelKernel() string {
	if r.LabelKernel == "" {
		return "full"
	}
	return r.LabelKernel
}

// defaultDistillFidelity is the holdout label agreement a distilled
// kernel must reach before it labels a job, applied when a request
// leaves its threshold at 0.
const defaultDistillFidelity = 0.99

// effectiveDistillFidelity is the fidelity threshold a distilled kernel
// must clear.
func (r Request) effectiveDistillFidelity() float64 {
	if r.DistillFidelity > 0 {
		return r.DistillFidelity
	}
	return defaultDistillFidelity
}

// effectiveTrainMode is the requested training mode with the default
// applied.
func (r Request) effectiveTrainMode() string {
	if r.TrainMode == "" {
		return "exact"
	}
	return r.TrainMode
}

// LocalExecutorOptions configure the in-process execution layer.
type LocalExecutorOptions struct {
	// CacheBytes bounds the metamodel LRU cache by the approximate
	// in-memory size of the cached models (default 256 MiB). A single
	// model larger than the budget is still cached, alone.
	CacheBytes int64
	// CacheTTL expires cached models this long after they were trained
	// (0 = never). Expired entries count as misses and as evictions.
	CacheTTL time.Duration
	// LabelCacheBytes bounds the pseudo-label dataset cache by the
	// approximate in-memory size of the cached datasets (default 256
	// MiB — at the default L=10^4 that is hundreds of labelings; at
	// L=10^5, a couple dozen).
	LabelCacheBytes int64
	// LabelCacheTTL expires cached pseudo-labeled datasets this long
	// after labeling (0 = never).
	LabelCacheTTL time.Duration
	// RulesetCacheBytes bounds the distilled rule-set cache (default 64
	// MiB — distilled models are small; this is hundreds of entries).
	RulesetCacheBytes int64
	// RulesetCacheTTL expires cached distilled models this long after
	// distillation (0 = never).
	RulesetCacheTTL time.Duration
	// Metrics is the registry the executor's instruments live in: the
	// per-stage latency histograms and the caches' counters. nil gets
	// a private registry, which keeps instruments working (and tests
	// hermetic) without exposition.
	Metrics *telemetry.Registry
}

func (o LocalExecutorOptions) withDefaults() LocalExecutorOptions {
	if o.CacheBytes <= 0 {
		o.CacheBytes = 256 << 20
	}
	if o.LabelCacheBytes <= 0 {
		o.LabelCacheBytes = 256 << 20
	}
	if o.RulesetCacheBytes <= 0 {
		o.RulesetCacheBytes = 64 << 20
	}
	return o
}

// LocalExecutor runs requests in-process: metamodel training (through
// the size-weighted LRU cache), parallel pseudo-labeling (through the
// batch-inference fast path and the pseudo-label dataset cache) and
// the SD stage all happen on the calling process's compute budget. It is
// the execution layer the engine used before the orchestration/
// execution split, now behind the Executor seam.
type LocalExecutor struct {
	// The artifact caches: trained models, pseudo-labeled datasets and
	// distilled rule sets. runVariant builds their keys.
	models   *byteCache[metamodel.Model]
	labels   *byteCache[*dataset.Dataset]
	rulesets *byteCache[*ruleset.Model]
	// stageSeconds is the per-stage latency histogram
	// (reds_exec_stage_seconds{stage,metamodel,sd}); children are
	// resolved per variant at execution start, off the hot path.
	stageSeconds *telemetry.HistogramVec
	// Checkpoint counters: executions resumed from a forwarded
	// checkpoint, checkpoints rejected (dataset-hash mismatch), and
	// finished variants reused instead of re-run.
	mCheckpointResumes         *telemetry.Counter
	mCheckpointRejected        *telemetry.Counter
	mCheckpointVariantsSkipped *telemetry.Counter
	// Distillation instruments: distillation latency, the size and
	// holdout fidelity of each produced rule set, and the number of
	// variant resolutions that fell back to the full ensemble.
	mDistillSeconds  *telemetry.Histogram
	mDistillRules    *telemetry.Histogram
	mDistillFidelity *telemetry.Histogram
	mDistillFallback *telemetry.Counter
	// Training instruments: metamodel training latency by family and
	// mode (cache misses only), and the number of variants that
	// requested binned training but trained exact (svm).
	mTrainSeconds  *telemetry.HistogramVec
	mTrainFallback *telemetry.Counter
}

// NewLocalExecutor returns an in-process executor with its own
// artifact caches.
func NewLocalExecutor(opts LocalExecutorOptions) *LocalExecutor {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &LocalExecutor{
		models:   newByteCache(opts.CacheBytes, opts.CacheTTL, modelSizeBytes, reg, "model"),
		labels:   newByteCache(opts.LabelCacheBytes, opts.LabelCacheTTL, datasetBytes, reg, "label"),
		rulesets: newByteCache(opts.RulesetCacheBytes, opts.RulesetCacheTTL, (*ruleset.Model).ApproxMemoryBytes, reg, "ruleset"),
		stageSeconds: reg.HistogramVec("reds_exec_stage_seconds",
			"Pipeline stage latency, labeled by stage (simulate, train, sample, label, discover) and variant.",
			telemetry.ExponentialBuckets(0.001, 2, 16), "stage", "metamodel", "sd"),
		mCheckpointResumes: reg.Counter("reds_engine_checkpoint_resumes_total",
			"Executions resumed from a forwarded checkpoint instead of starting fresh."),
		mCheckpointRejected: reg.Counter("reds_engine_checkpoint_rejected_total",
			"Forwarded checkpoints ignored because their dataset hash did not match the resolved training data."),
		mCheckpointVariantsSkipped: reg.Counter("reds_engine_checkpoint_variants_skipped_total",
			"Finished variants reused from a checkpoint instead of re-running."),
		mDistillSeconds: reg.Histogram("reds_ruleset_distill_seconds",
			"Latency of rule-set distillations (cache misses only).",
			telemetry.ExponentialBuckets(0.001, 2, 14)),
		mDistillRules: reg.Histogram("reds_ruleset_rules",
			"Rules per distilled rule set, after dedup.",
			telemetry.ExponentialBuckets(8, 2, 14)),
		mDistillFidelity: reg.Histogram("reds_ruleset_fidelity",
			"Holdout label agreement of distilled rule sets with their parent ensemble.",
			[]float64{0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999, 1}),
		mDistillFallback: reg.Counter("reds_ruleset_fallbacks_total",
			"Variant label-kernel resolutions that requested the distilled kernel but fell back to the full ensemble (unsupported family or fidelity below threshold)."),
		mTrainSeconds: reg.HistogramVec("reds_train_seconds",
			"Metamodel training latency (cache misses only), labeled by family and training mode (exact, binned).",
			telemetry.ExponentialBuckets(0.001, 2, 16), "metamodel", "mode"),
		mTrainFallback: reg.Counter("reds_train_fallbacks_total",
			"Variants that requested binned training but trained exact because their family has no binned path (svm)."),
	}
}

// CacheStats returns cumulative metamodel cache counters.
func (x *LocalExecutor) CacheStats() CacheStats { return x.models.Stats() }

// LabelCacheStats returns cumulative pseudo-label dataset cache
// counters.
func (x *LocalExecutor) LabelCacheStats() CacheStats { return x.labels.Stats() }

// RulesetCacheStats returns cumulative distilled rule-set cache
// counters.
func (x *LocalExecutor) RulesetCacheStats() CacheStats { return x.rulesets.Stats() }

// RulesetFallbacks returns the cumulative count of distilled-kernel
// resolutions that fell back to the full ensemble.
func (x *LocalExecutor) RulesetFallbacks() int64 { return x.mDistillFallback.Value() }

// TrainFallbacks returns the cumulative count of variants that
// requested binned training but trained exact.
func (x *LocalExecutor) TrainFallbacks() int64 { return x.mTrainFallback.Value() }

// progressSink aggregates concurrent progress updates for one execution
// and forwards each new snapshot to the callback. Updates mutate the
// shared Progress under one mutex and the callback runs while it is
// held, so snapshots reach the callback in a consistent, monotone
// order; callbacks must therefore be fast and must not re-enter the
// executor.
type progressSink struct {
	mu sync.Mutex
	p  Progress
	// spans is the sink's own append-only trace; p.Timings always
	// points at an immutable copy of it, so callbacks (and whoever
	// they hand the Progress to) can read the slice without holding
	// the sink's lock.
	spans []StageTiming
	fn    func(Progress)
}

func newProgressSink(fn func(Progress)) *progressSink {
	return &progressSink{fn: fn}
}

func (s *progressSink) update(mutate func(*Progress)) {
	s.mu.Lock()
	mutate(&s.p)
	if s.fn != nil {
		s.fn(s.p)
	}
	s.mu.Unlock()
}

// addSpan appends a closed span to the trace and publishes the new
// snapshot. Spans close at stage granularity (a handful per variant),
// so the copy here is rare and small — the per-point labeling hot
// path goes through update, which never touches Timings.
func (s *progressSink) addSpan(t StageTiming) {
	s.mu.Lock()
	s.spans = append(s.spans, t)
	cp := make([]StageTiming, len(s.spans))
	copy(cp, s.spans)
	s.p.Timings = cp
	if s.fn != nil {
		s.fn(s.p)
	}
	s.mu.Unlock()
}

// preload seeds the trace with spans closed by an earlier execution
// (from a checkpoint) without publishing: the resumed execution's
// reports then carry the full job trace — old spans plus its own —
// with no duplicates for the stages it skips. Call before any update.
func (s *progressSink) preload(spans []StageTiming) {
	s.mu.Lock()
	s.spans = append([]StageTiming(nil), spans...)
	cp := make([]StageTiming, len(s.spans))
	copy(cp, s.spans)
	s.p.Timings = cp
	s.mu.Unlock()
}

// setCheckpoint attaches a new resumable snapshot to the progress and
// publishes it. The snapshot's trace is stamped here, under the sink's
// lock, so it is exactly the trace of the progress it travels with.
// Recorders publish snapshots after releasing their lock, so two can
// arrive out of order: one older than the attached snapshot is
// dropped, as the checkpoint writer and the gateway drop theirs.
func (s *progressSink) setCheckpoint(cp *Checkpoint) {
	s.mu.Lock()
	if cp.Seq <= s.p.checkpointSeq() {
		s.mu.Unlock()
		return
	}
	cp.Timings = s.p.Timings
	s.p.Checkpoint = cp
	if s.fn != nil {
		s.fn(s.p)
	}
	s.mu.Unlock()
}
