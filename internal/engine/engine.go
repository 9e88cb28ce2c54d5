package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reds-go/reds/internal/engine/store"
	"github.com/reds-go/reds/internal/telemetry"
)

// Options configure an Engine.
type Options struct {
	// Workers is the number of jobs executed concurrently (default
	// GOMAXPROCS/2, min 1). Each job may itself fan out across variants
	// and labeling workers, so a modest pool keeps the machine busy
	// without oversubscribing it.
	Workers int
	// QueueSize bounds the number of pending jobs (default 64). Submit
	// fails fast once the queue is full — backpressure instead of
	// unbounded memory growth. On recovery the queue is grown to fit
	// every re-enqueued job regardless of this bound.
	QueueSize int

	// Executor is the execution layer jobs are handed to. nil defaults
	// to an in-process LocalExecutor with default cache budgets. A
	// RemoteExecutor or a cluster.Dispatcher turns the same engine into
	// the orchestration tier of a multi-process deployment.
	Executor Executor

	// Store persists jobs and results across restarts. nil defaults to
	// a fresh in-memory store, which preserves the historical behavior:
	// engine state dies with the process. Pass a store.FS opened over a
	// fixed directory to make jobs durable. The engine owns the store
	// once New succeeds and closes it in Close.
	Store store.Store
	// TTL expires terminal jobs: once a job has been done, failed or
	// canceled for longer than TTL, the background sweeper deletes it
	// (and its result) from both the store and the engine. 0 disables
	// expiry and keeps every job forever.
	TTL time.Duration
	// SweepInterval is the period of the TTL sweeper goroutine (default
	// 1 minute; only used when TTL > 0).
	SweepInterval time.Duration

	// Metrics is the telemetry registry the engine's instruments live
	// in (job lifecycle counters, queue depth/wait, job duration). nil
	// gets a private registry: instruments keep working, nothing is
	// exposed — which also keeps engines hermetic in tests. Pass the
	// same registry to the executor and the store so one /metrics
	// scrape covers the whole process.
	Metrics *telemetry.Registry
	// Logger receives the engine's structured logs (job lifecycle at
	// info with job and request IDs, store failures at error). nil
	// uses slog.Default().
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) / 2
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 64
	}
	if o.Executor == nil {
		o.Executor = NewLocalExecutor(LocalExecutorOptions{})
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = time.Minute
	}
	return o
}

// RecoveryStats describes what New found in a pre-existing store.
type RecoveryStats struct {
	// Recovered is the total number of jobs loaded from the store.
	Recovered int
	// Reenqueued counts recovered pending jobs put back on the queue;
	// they run again from their original request.
	Reenqueued int
	// Resumed counts jobs the previous process left running that had a
	// persisted execution checkpoint: instead of being orphaned they are
	// re-enqueued and resume from the checkpoint (skipping the stages it
	// proves complete). Resumed jobs are included in Reenqueued.
	Resumed int
	// Orphaned counts jobs that were running when the previous process
	// stopped without finishing them (a crash — a graceful Close leaves
	// running jobs canceled, not running) and that left no checkpoint to
	// resume from. They are marked failed with a restart reason rather
	// than silently re-run.
	Orphaned int
}

// Engine is the orchestration layer of the service: it schedules
// discovery jobs onto a bounded worker pool, hands each one to its
// Executor, and mirrors every lifecycle transition into its Store. All
// methods are safe for concurrent use.
type Engine struct {
	opts     Options
	exec     Executor
	store    store.Store
	recovery RecoveryStats
	queue    chan *job
	wg       sync.WaitGroup
	ctx      context.Context
	cancel   context.CancelFunc
	log      *slog.Logger

	// Lifecycle instruments. running backs the running-jobs gauge as a
	// plain atomic because workers bump it on the execute hot path;
	// queue depth is a GaugeFunc over len(e.queue) evaluated at scrape.
	mSubmitted    *telemetry.Counter
	mFinished     *telemetry.CounterVec // status = done|failed|canceled
	mQueueWait    *telemetry.Histogram
	mJobDuration  *telemetry.Histogram
	mSweepDeleted *telemetry.Counter
	mCheckpoints  *telemetry.Counter
	running       atomic.Int64
	// draining stops workers from starting dequeued jobs — they stay
	// pending so a durable restart re-enqueues them — while jobs already
	// running are left to finish. Set by Drain, never cleared.
	draining atomic.Bool

	mu     sync.Mutex
	jobs   map[JobID]*job
	order  []JobID
	nextID uint64
	// persistedNextID is the job-ID high-water mark already written to
	// the store's meta namespace; the sweeper raises it before deleting
	// records so ids are never reused across restarts (a reused id would
	// silently serve a different job's data to a client holding an old
	// URL).
	persistedNextID uint64
	closed          bool
}

// nextIDMetaKey is the store meta key holding the job-ID high-water
// mark as a JSON number.
const nextIDMetaKey = "next_id"

// ErrQueueFull is the sentinel Submit wraps when the engine's bounded
// queue rejects a job. The API layer maps it to 429 Too Many Requests
// with a Retry-After hint.
var ErrQueueFull = errors.New("queue full")

// SubmitOptions carry submission metadata that is not part of the
// request payload.
type SubmitOptions struct {
	// RequestID continues the caller's trace (see SubmitTraced). Empty
	// gets a fresh id at execution start.
	RequestID string
	// Owner is the authenticated client submitting the job. It is
	// persisted with the job record and surfaces as Snapshot.Client.
	Owner string
	// OnDone fires exactly once when the job reaches a terminal state
	// (done, failed or canceled) — admission control releases the
	// owner's in-flight slot here. Not invoked for jobs that never
	// enqueue (Submit returned an error) and not persisted: after a
	// restart recovered jobs carry no hook.
	OnDone func()
}

// New starts an engine with its worker pool. If the configured store
// holds jobs from a previous process they are recovered first: terminal
// jobs become visible again (results load lazily from the store),
// pending jobs are re-enqueued, and jobs the previous process left
// running are marked failed with a restart reason — see RecoveryStats.
func New(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	st := opts.Store
	if st == nil {
		st = store.NewMem()
	}
	recs, err := st.List()
	if err != nil {
		return nil, fmt.Errorf("engine: listing store: %w", err)
	}

	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}

	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		opts:   opts,
		exec:   opts.Executor,
		store:  st,
		ctx:    ctx,
		cancel: cancel,
		log:    logger,
		jobs:   make(map[JobID]*job),
		mSubmitted: reg.Counter("reds_engine_jobs_submitted_total",
			"Jobs accepted by Submit."),
		mFinished: reg.CounterVec("reds_engine_jobs_finished_total",
			"Jobs that reached a terminal status.", "status"),
		mQueueWait: reg.Histogram("reds_engine_queue_wait_seconds",
			"Time jobs spent queued between submission and execution start.",
			telemetry.ExponentialBuckets(0.001, 4, 12)),
		mJobDuration: reg.Histogram("reds_engine_job_duration_seconds",
			"Wall-clock execution time of finished jobs (excludes queue wait).",
			telemetry.ExponentialBuckets(0.01, 2, 16)),
		mSweepDeleted: reg.Counter("reds_engine_sweep_deleted_total",
			"Terminal jobs deleted by the TTL sweeper."),
		mCheckpoints: reg.Counter("reds_engine_checkpoints_persisted_total",
			"Execution checkpoints written to the store."),
	}
	pending, err := e.recover(recs)
	if err != nil {
		cancel()
		return nil, err
	}
	reg.Counter("reds_engine_jobs_recovered_total",
		"Jobs loaded from the store at startup.").Add(int64(e.recovery.Recovered))

	queueCap := opts.QueueSize
	if len(pending) > queueCap {
		queueCap = len(pending)
	}
	e.queue = make(chan *job, queueCap)
	for _, j := range pending {
		e.queue <- j
	}
	// Depth gauges read live state at scrape time; registered after the
	// queue exists so the closures never see a nil channel.
	reg.GaugeFunc("reds_engine_queue_depth_jobs",
		"Jobs currently waiting in the queue.",
		func() float64 { return float64(len(e.queue)) })
	reg.GaugeFunc("reds_engine_running_jobs",
		"Jobs currently executing.",
		func() float64 { return float64(e.running.Load()) })
	reg.GaugeFunc("reds_engine_tracked_jobs",
		"Jobs the engine currently knows (all statuses, post-TTL-sweep).",
		func() float64 { return float64(e.JobCount()) })

	e.wg.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		go e.worker()
	}
	if opts.TTL > 0 {
		e.wg.Add(1)
		go e.sweeper()
	}
	return e, nil
}

// recover rebuilds the in-memory job index from store records and
// returns the jobs to re-enqueue. Called from New before the workers
// start, so no locking is needed yet.
func (e *Engine) recover(recs []store.Record) ([]*job, error) {
	var pending []*job
	for _, rec := range recs {
		j := &job{
			id:          JobID(rec.ID),
			status:      Status(rec.Status),
			owner:       rec.Owner,
			reqJSON:     rec.Request,
			submittedAt: rec.SubmittedAt,
			startedAt:   rec.StartedAt,
			finishedAt:  rec.FinishedAt,
		}
		if rec.Error != "" {
			j.err = errors.New(rec.Error)
		}
		repersist := false
		switch j.status {
		case StatusPending, StatusRunning, StatusDone, StatusFailed, StatusCanceled:
		default:
			j.status = StatusFailed
			j.err = fmt.Errorf("stored record has unknown status %q", rec.Status)
			repersist = true
		}
		if err := json.Unmarshal(rec.Request, &j.req); err != nil && !j.status.Terminal() {
			j.status = StatusFailed
			j.err = fmt.Errorf("stored request is unreadable: %w", err)
			repersist = true
		}
		if repersist && j.finishedAt.IsZero() {
			// A job failed during recovery is terminal: give it the
			// FinishedAt that makes it TTL-sweepable.
			j.finishedAt = time.Now()
		}

		var n uint64
		if _, err := fmt.Sscanf(rec.ID, "job-%d", &n); err == nil && n > e.nextID {
			e.nextID = n
		}

		jctx, jcancel := context.WithCancel(e.ctx)
		j.ctx, j.cancel = jctx, jcancel
		switch j.status {
		case StatusPending:
			pending = append(pending, j)
			e.recovery.Reenqueued++
		case StatusRunning:
			if _, ok, cerr := e.store.GetCheckpoint(rec.ID); cerr == nil && ok {
				// The previous process died mid-job but left a checkpoint:
				// re-enqueue the job. execute loads the checkpoint from the
				// store, so the finished stages are skipped, not re-run.
				j.status = StatusPending
				j.startedAt = time.Time{}
				pending = append(pending, j)
				e.recovery.Resumed++
				e.recovery.Reenqueued++
				repersist = true
				break
			}
			// The previous process died mid-job with nothing to resume
			// from. Fail it explicitly with the reason instead of
			// re-running: the client may have acted on partial progress,
			// and an expensive job should only burn compute twice on an
			// explicit resubmit.
			j.status = StatusFailed
			j.err = errors.New("job was running when the previous engine process stopped; resubmit to re-run")
			j.finishedAt = time.Now()
			jcancel()
			e.recovery.Orphaned++
			repersist = true
		default:
			jcancel() // terminal: nothing to cancel later
		}
		if repersist {
			e.persist(j.transitionLocked()) // no concurrency yet; "Locked" is satisfied trivially
		}
		e.jobs[j.id] = j
		e.order = append(e.order, j.id)
		e.recovery.Recovered++
	}
	// The id high-water mark may exceed every surviving record's id when
	// swept jobs carried the highest ids. persistedNextID tracks what is
	// durably in the meta namespace (not what is derivable from records,
	// which sweeping can delete), so the sweeper knows when to raise it.
	// A GetMeta failure must fail recovery: proceeding with a low nextID
	// is exactly the silent id reuse the mark prevents.
	raw, ok, err := e.store.GetMeta(nextIDMetaKey)
	if err != nil {
		return nil, fmt.Errorf("engine: reading id high-water mark: %w", err)
	}
	if ok {
		var n uint64
		if err := json.Unmarshal(raw, &n); err != nil {
			return nil, fmt.Errorf("engine: decoding id high-water mark %q: %w", raw, err)
		}
		e.persistedNextID = n
		if n > e.nextID {
			e.nextID = n
		}
	}
	return pending, nil
}

// Recovery reports what New loaded from a pre-existing store.
func (e *Engine) Recovery() RecoveryStats { return e.recovery }

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		e.execute(j)
	}
}

// sweeper is the TTL garbage collector: every SweepInterval it deletes
// terminal jobs that finished more than TTL ago from the store and the
// in-memory index.
func (e *Engine) sweeper() {
	defer e.wg.Done()
	t := time.NewTicker(e.opts.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-e.ctx.Done():
			return
		case <-t.C:
			e.sweepExpired()
		}
	}
}

// sweepExpired performs one TTL sweep and returns how many jobs it
// removed. The store decides expiry from its mirrored records (non-zero
// FinishedAt before the cutoff), so running jobs are never touched.
func (e *Engine) sweepExpired() int {
	// Make the id high-water mark durable before deleting the records
	// that encode it, so a restart after the sweep cannot reuse ids.
	e.mu.Lock()
	n, persisted := e.nextID, e.persistedNextID
	e.mu.Unlock()
	if n > persisted {
		raw, _ := json.Marshal(n)
		if err := e.store.PutMeta(nextIDMetaKey, raw); err != nil {
			e.log.Error("persisting id high-water mark failed", "error", err)
			return 0 // do not sweep past an unpersisted mark
		}
		e.mu.Lock()
		if n > e.persistedNextID {
			e.persistedNextID = n
		}
		e.mu.Unlock()
	}
	ids, err := e.store.Sweep(time.Now().Add(-e.opts.TTL))
	if err != nil {
		e.log.Error("ttl sweep failed", "error", err)
		return 0
	}
	if len(ids) == 0 {
		return 0
	}
	drop := make(map[JobID]bool, len(ids))
	for _, id := range ids {
		drop[JobID(id)] = true
	}
	e.mu.Lock()
	kept := e.order[:0]
	for _, id := range e.order {
		if drop[id] {
			delete(e.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	e.order = kept
	e.mu.Unlock()
	e.mSweepDeleted.Add(int64(len(ids)))
	e.log.Info("ttl sweep removed expired jobs", "deleted", len(ids))
	return len(ids)
}

// persist mirrors a job record into the store. Store failures must not
// take down job execution, so they are logged and the in-memory state
// stays authoritative for this process.
func (e *Engine) persist(rec store.Record) {
	if err := e.store.PutJob(rec); err != nil {
		e.log.Error("persisting job failed", "job_id", rec.ID, "error", err)
	}
}

// execute transitions a dequeued job through its lifecycle.
func (e *Engine) execute(j *job) {
	j.mu.Lock()
	if j.status != StatusPending { // canceled while queued
		j.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil {
		// The engine is shutting down while the job was still queued (a
		// user cancel would already have moved it to canceled). Leave it
		// pending: over a durable store the next process re-enqueues it.
		j.mu.Unlock()
		return
	}
	if e.draining.Load() {
		// Draining: same treatment as shutdown — the job stays pending
		// and a durable restart re-enqueues it.
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.startedAt = time.Now()
	if j.requestID == "" {
		// Recovered pending jobs (and direct Submit calls) have no
		// caller-provided trace id; start a fresh trace here so their
		// spans are still correlatable in the logs.
		j.requestID = telemetry.NewRequestID()
	}
	rid := j.requestID
	queueWait := j.startedAt.Sub(j.submittedAt)
	rec := j.transitionLocked()
	j.mu.Unlock()
	e.persist(rec)
	e.mQueueWait.Observe(queueWait.Seconds())
	e.running.Add(1)
	e.log.Info("job started", "job_id", string(j.id), "request_id", rid,
		"queue_wait_ms", queueWait.Milliseconds())

	// Resume from a persisted checkpoint when one exists (dispatcher
	// failover writes them through onProgress below; recovery re-enqueues
	// crashed jobs that have one). The request copy keeps j.req pristine:
	// snapshots and retries must not see infrastructure state.
	req := j.req
	raw, hadCheckpoint, cerr := e.store.GetCheckpoint(string(j.id))
	if cerr == nil && hadCheckpoint {
		if cp, uerr := decodeCheckpoint(bytes.NewReader(raw)); uerr != nil {
			// Written by a build with another checkpoint layout: run cold.
			e.log.Warn("ignoring undecodable persisted checkpoint",
				"job_id", string(j.id), "request_id", rid, "error", uerr)
		} else {
			req.Checkpoint = cp
			e.log.Info("job resuming from persisted checkpoint",
				"job_id", string(j.id), "request_id", rid, "checkpoint_seq", cp.Seq)
		}
	}
	// Every new checkpoint the executor reports goes to this execution's
	// writer, which encodes and stores it off the executor's path.
	w := e.startCheckpointWriter(string(j.id))
	onProgress := func(p Progress) {
		j.setProgress(p)
		if p.Checkpoint != nil {
			w.offer(p.Checkpoint)
		}
	}

	result, err := e.exec.Execute(telemetry.WithRequestID(j.ctx, rid), req, onProgress)

	j.mu.Lock()
	j.finishedAt = time.Now()
	switch {
	case j.ctx.Err() != nil:
		j.status = StatusCanceled
	case err != nil:
		j.status = StatusFailed
		j.err = err
	default:
		j.status = StatusDone
		j.result = result
	}
	duration := j.finishedAt.Sub(j.startedAt)
	rec = j.transitionLocked()
	done := j.status == StatusDone
	status := j.status
	j.mu.Unlock()
	j.fireDone()
	e.running.Add(-1)
	e.mFinished.With(string(status)).Inc()
	e.mJobDuration.Observe(duration.Seconds())
	if err != nil && status == StatusFailed {
		e.log.Warn("job failed", "job_id", string(j.id), "request_id", rid,
			"duration_ms", duration.Milliseconds(), "error", err)
	} else {
		e.log.Info("job finished", "job_id", string(j.id), "request_id", rid,
			"status", string(status), "duration_ms", duration.Milliseconds())
	}

	// The writer flushes its newest snapshot and exits before the result
	// is written, so no checkpoint lands after the result and the delete
	// below follows every checkpoint write.
	persisted := w.finish()
	// Result before record: once the record says done, the result is
	// guaranteed to be in the store (a crash in between re-runs nothing
	// and loses nothing — the job is still recorded as running and gets
	// orphaned on recovery). If the result cannot be persisted, the
	// record is deliberately NOT advanced to done either: this process
	// still serves the in-memory result, and the store's stale running
	// record becomes an honest orphaned-failed job on the next boot
	// instead of a done job whose result can never load.
	if done {
		raw, err := json.Marshal(result)
		if err == nil {
			err = e.store.PutResult(string(j.id), raw)
		}
		if err != nil {
			e.log.Error("persisting result failed, leaving stored record running",
				"job_id", string(j.id), "error", err)
			// The checkpoint is deliberately kept: the stored record still
			// says running, so the next boot resumes from it.
			return
		}
	}
	e.persist(rec)
	// Terminal jobs have no use for their checkpoint anymore.
	if persisted || hadCheckpoint {
		if cerr := e.store.PutCheckpoint(string(j.id), nil); cerr != nil {
			e.log.Error("deleting checkpoint failed", "job_id", string(j.id), "error", cerr)
		}
	}
}

// checkpointWriter persists one execution's checkpoints from its own
// goroutine, so neither the JSON encode nor the store write runs on
// the executor's path (the progress callback runs under the executor's
// progress lock). next holds the newest snapshot the writer has not
// taken: one superseded before its turn is never encoded. A failed
// write is logged, and the next snapshot supersedes it.
type checkpointWriter struct {
	e    *Engine
	id   string
	next chan *Checkpoint // capacity 1
	done chan struct{}    // closed when the writer exits
	// offered is the Seq of the newest snapshot offered. Executors
	// serialize progress callbacks per execution, so it needs no lock.
	offered uint64
	// persisted reports that some write succeeded; read after done.
	persisted bool
}

func (e *Engine) startCheckpointWriter(id string) *checkpointWriter {
	w := &checkpointWriter{e: e, id: id, next: make(chan *Checkpoint, 1), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for cp := range w.next {
			w.write(cp)
		}
	}()
	return w
}

// offer hands a snapshot to the writer without blocking. Progress
// reports repeat the current snapshot until a newer one replaces it,
// so one no newer than the last offered is dropped.
func (w *checkpointWriter) offer(cp *Checkpoint) {
	if cp.Seq <= w.offered {
		return
	}
	w.offered = cp.Seq
	select {
	case <-w.next: // superseded before the writer took it
	default:
	}
	w.next <- cp // never blocks: offer is the only sender and just emptied next
}

func (w *checkpointWriter) write(cp *Checkpoint) {
	raw, err := json.Marshal(cp)
	if err == nil {
		err = w.e.store.PutCheckpoint(w.id, raw)
	}
	if err != nil {
		w.e.log.Error("persisting checkpoint failed", "job_id", w.id, "error", err)
		return
	}
	w.persisted = true
	w.e.mCheckpoints.Inc()
}

// finish waits for the writer to store the newest snapshot and exit,
// and reports whether it stored any checkpoint. Call it once, after
// the execution has returned: no offer may follow.
func (w *checkpointWriter) finish() bool {
	close(w.next)
	<-w.done
	return w.persisted
}

// Submit validates and enqueues a job, returning its ID. It fails when
// the request is invalid, the queue is full, or the engine is closed.
// The job is persisted as pending before Submit returns. The job gets a
// fresh request ID; use SubmitTraced to continue a caller's trace.
func (e *Engine) Submit(req Request) (JobID, error) {
	return e.SubmitTraced(req, "")
}

// SubmitTraced is Submit with an explicit request ID: the id travels
// with the job through logs, the snapshot's request_id field, and —
// over a RemoteExecutor — the X-Request-Id header to the worker, so one
// grep correlates a request across gateway and worker processes. An
// empty id gets a fresh one at execution start.
func (e *Engine) SubmitTraced(req Request, requestID string) (JobID, error) {
	return e.SubmitWith(req, SubmitOptions{RequestID: requestID})
}

// SubmitWith is Submit with full submission metadata: trace id, owning
// client and a terminal hook. See SubmitOptions.
func (e *Engine) SubmitWith(req Request, opts SubmitOptions) (JobID, error) {
	if err := req.Validate(); err != nil {
		return "", err
	}
	reqJSON, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("engine: encoding request: %w", err)
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return "", fmt.Errorf("engine: closed")
	}
	// Reject on a visibly full queue before doing any store I/O, so
	// backpressure during overload stays free of fsyncs. This check is
	// conservative (the authoritative one is the enqueue below).
	if len(e.queue) == cap(e.queue) {
		e.mu.Unlock()
		return "", fmt.Errorf("engine: %w (%d pending jobs)", ErrQueueFull, e.opts.QueueSize)
	}
	e.nextID++
	id := JobID(fmt.Sprintf("job-%06d", e.nextID))
	e.mu.Unlock()

	ctx, cancel := context.WithCancel(e.ctx)
	j := &job{
		id:          id,
		req:         req,
		reqJSON:     reqJSON,
		ctx:         ctx,
		cancel:      cancel,
		status:      StatusPending,
		submittedAt: time.Now(),
		requestID:   opts.RequestID,
		owner:       opts.Owner,
		onDone:      opts.OnDone,
	}
	// Persist outside e.mu — an fsync (or a snapshot compaction) must
	// not stall every concurrent status poll — but before enqueueing, so
	// the worker's "running" upsert cannot race ahead of the initial
	// pending record.
	e.persist(j.recordLocked())

	e.mu.Lock()
	reject := func(reason error) (JobID, error) {
		e.mu.Unlock()
		cancel()
		// Best-effort: drop the already-persisted pending record so a
		// later boot does not resurrect a job nobody was told about.
		if err := e.store.Delete(string(id)); err != nil {
			e.log.Error("deleting rejected job failed", "job_id", string(id), "error", err)
		}
		return "", reason
	}
	if e.closed {
		return reject(fmt.Errorf("engine: closed"))
	}
	select {
	case e.queue <- j:
	default:
		return reject(fmt.Errorf("engine: %w (%d pending jobs)", ErrQueueFull, e.opts.QueueSize))
	}
	e.jobs[id] = j
	e.order = append(e.order, id)
	e.mu.Unlock()
	e.mSubmitted.Inc()
	e.log.Debug("job submitted", "job_id", string(id), "request_id", opts.RequestID,
		"client", opts.Owner)
	return id, nil
}

func (e *Engine) lookup(id JobID) (*job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Job returns a snapshot of the job, if it exists.
func (e *Engine) Job(id JobID) (Snapshot, bool) {
	j, ok := e.lookup(id)
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// Jobs returns snapshots of every known job in submission order.
func (e *Engine) Jobs() []Snapshot {
	e.mu.Lock()
	ids := append([]JobID(nil), e.order...)
	e.mu.Unlock()
	out := make([]Snapshot, 0, len(ids))
	for _, id := range ids {
		if j, ok := e.lookup(id); ok {
			out = append(out, j.snapshot())
		}
	}
	return out
}

// Result returns the payload of a finished job. It fails for unknown
// jobs and for jobs that are not (or not yet) done. For a job recovered
// from a durable store the payload is loaded from the store on first
// access and cached on the job afterwards.
func (e *Engine) Result(id JobID) (*Result, error) {
	j, ok := e.lookup(id)
	if !ok {
		return nil, fmt.Errorf("engine: unknown job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusDone:
		if j.result == nil {
			res, err := e.loadResult(id)
			if err != nil {
				return nil, err
			}
			j.result = res
		}
		return j.result, nil
	case StatusFailed:
		return nil, fmt.Errorf("engine: job %s failed: %w", id, j.err)
	case StatusCanceled:
		return nil, fmt.Errorf("engine: job %s was canceled", id)
	default:
		return nil, fmt.Errorf("engine: job %s is %s, result not ready", id, j.status)
	}
}

// loadResult fetches and decodes a persisted result payload.
func (e *Engine) loadResult(id JobID) (*Result, error) {
	raw, ok, err := e.store.GetResult(string(id))
	if err != nil {
		return nil, fmt.Errorf("engine: loading result of %s: %w", id, err)
	}
	if !ok {
		return nil, fmt.Errorf("engine: result of %s is missing from the store", id)
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("engine: decoding stored result of %s: %w", id, err)
	}
	return &res, nil
}

// Cancel requests cancellation of a job. Queued jobs are canceled
// immediately; running jobs stop at the next cancellation point. It
// reports whether the job exists and was not already terminal.
func (e *Engine) Cancel(id JobID) bool {
	j, ok := e.lookup(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	terminal := j.status.Terminal()
	var rec store.Record
	persist := false
	if j.status == StatusPending {
		// The worker that eventually dequeues it will observe the
		// status and skip execution.
		j.status = StatusCanceled
		j.finishedAt = time.Now()
		rec = j.transitionLocked()
		persist = true
	}
	j.mu.Unlock()
	if persist {
		// Canceled while still queued: this is the job's terminal
		// transition, so the in-flight slot frees here (a running job's
		// frees when the worker observes the cancellation).
		e.persist(rec)
		j.fireDone()
	}
	j.cancel()
	return !terminal
}

// CacheStats returns the executor's cumulative metamodel cache
// counters, when the executor has a cache (LocalExecutor does; a
// RemoteExecutor or dispatcher reports zeros — the caches live on the
// workers and show up on their /v1/healthz instead).
func (e *Engine) CacheStats() CacheStats {
	if cs, ok := e.exec.(interface{ CacheStats() CacheStats }); ok {
		return cs.CacheStats()
	}
	return CacheStats{}
}

// LabelCacheStats returns the executor's cumulative pseudo-label
// dataset cache counters, under the same executor-locality caveat as
// CacheStats.
func (e *Engine) LabelCacheStats() CacheStats {
	if cs, ok := e.exec.(interface{ LabelCacheStats() CacheStats }); ok {
		return cs.LabelCacheStats()
	}
	return CacheStats{}
}

// RulesetCacheStats returns the executor's cumulative distilled
// rule-set cache counters, under the same executor-locality caveat as
// CacheStats.
func (e *Engine) RulesetCacheStats() CacheStats {
	if cs, ok := e.exec.(interface{ RulesetCacheStats() CacheStats }); ok {
		return cs.RulesetCacheStats()
	}
	return CacheStats{}
}

// Executor returns the execution layer the engine dispatches jobs to.
func (e *Engine) Executor() Executor { return e.exec }

// JobCount returns the number of jobs the engine currently knows,
// without materializing snapshots (TTL-swept jobs are gone).
func (e *Engine) JobCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.jobs)
}

// Drain puts the engine into drain mode and waits up to timeout for
// running jobs to finish. Dequeued-but-unstarted jobs stay pending (a
// restart over a durable store re-enqueues them); new submissions are
// still accepted but not executed. It reports whether the engine fully
// drained. Callers follow with Close, which cancels whatever is left.
func (e *Engine) Drain(timeout time.Duration) bool {
	e.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for e.running.Load() > 0 {
		if time.Now().After(deadline) {
			return e.running.Load() == 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// Close cancels running jobs, stops the workers and the sweeper, waits
// for them, and closes the store. Running jobs end canceled (persisted
// as such); jobs still queued stay pending so a restart over a durable
// store re-enqueues them. The engine accepts no submissions afterwards.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	e.cancel()     // cancels every job context and stops the sweeper
	close(e.queue) // drains: workers skip canceled jobs
	e.wg.Wait()
	if err := e.store.Close(); err != nil {
		e.log.Error("closing store failed", "error", err)
	}
}
