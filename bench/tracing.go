package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/engine/store"
	"github.com/reds-go/reds/internal/telemetry"
)

// Executor tiers the tracer tells apart. tierEngine is the executor an
// engine calls directly (in-process and single server); a gateway's
// engine calls tierGateway (the dispatcher), whose worker side runs
// tierWorker.
const (
	tierEngine  = "exec"
	tierGateway = "gateway"
	tierWorker  = "worker"
)

// tracer times the calls the system under test makes into two of its
// seams, the engine.Executor and store.Store interfaces, by wrapping
// them from outside. A nil *tracer wraps nothing and records nothing,
// which is how untraced runs stay free of its cost.
type tracer struct {
	mu sync.Mutex
	// execs holds one record per executor tier, keyed by the request id
	// the client sent.
	execs map[string][]*execRecord
	// stores holds the store calls made for each engine job id.
	stores map[string][]storeOp
}

func newTracer() *tracer {
	return &tracer{execs: map[string][]*execRecord{}, stores: map[string][]storeOp{}}
}

// reset forgets everything recorded so far (the set-up passes).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.execs = map[string][]*execRecord{}
	t.stores = map[string][]storeOp{}
}

// execRecord is one executor tier's view of one job.
type execRecord struct {
	tier string
	wall interval
	// callbacks are the calls into the caller's progress callback.
	callbacks []interval
	// checkpoints counts callbacks that carried a new checkpoint seq.
	checkpoints int
	// stages are the executor's closed spans, placed in time by the
	// arrival of the callback that published them.
	stages []stageSpan
}

type stageSpan struct {
	name string
	interval
}

// storeOp is one call into the store for a job.
type storeOp struct {
	op string
	interval
	bytes int
}

func (t *tracer) executor(tier string, inner engine.Executor) engine.Executor {
	if t == nil {
		return inner
	}
	return &timedExecutor{inner: inner, tier: tier, tr: t}
}

func (t *tracer) store(inner store.Store) store.Store {
	if t == nil {
		return inner
	}
	return &timedStore{inner: inner, tr: t}
}

func (t *tracer) execRecords(rid string) []*execRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.execs[rid]
}

func (t *tracer) storeOps(jobID string) []storeOp {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stores[jobID]
}

// timedExecutor records the wall of each Execute, the time spent inside
// the caller's progress callback, and the stage spans the callbacks
// carry.
type timedExecutor struct {
	inner engine.Executor
	tier  string
	tr    *tracer
}

func (x *timedExecutor) Execute(ctx context.Context, req engine.Request, onProgress func(engine.Progress)) (*engine.Result, error) {
	rec := &execRecord{tier: x.tier}
	var mu sync.Mutex // executors serialize callbacks per execution; this orders them with the final read
	var seen int
	var lastSeq uint64
	progress := func(p engine.Progress) {
		arrived := time.Now()
		if onProgress != nil {
			onProgress(p)
		}
		left := time.Now()
		mu.Lock()
		defer mu.Unlock()
		rec.callbacks = append(rec.callbacks, interval{arrived, left})
		if cp := p.Checkpoint; cp != nil && cp.Seq > lastSeq {
			lastSeq = cp.Seq
			rec.checkpoints++
		}
		for _, s := range p.Timings[min(seen, len(p.Timings)):] {
			d := time.Duration(s.Seconds * float64(time.Second))
			rec.stages = append(rec.stages, stageSpan{s.Stage, interval{arrived.Add(-d), arrived}})
		}
		seen = max(seen, len(p.Timings))
	}
	rec.wall.start = time.Now()
	res, err := x.inner.Execute(ctx, req, progress)
	rec.wall.end = time.Now()
	mu.Lock()
	defer mu.Unlock()
	rid := telemetry.RequestID(ctx)
	x.tr.mu.Lock()
	x.tr.execs[rid] = append(x.tr.execs[rid], rec)
	x.tr.mu.Unlock()
	return res, err
}

// timedStore records every store call made for a job.
type timedStore struct {
	inner store.Store
	tr    *tracer
}

func (s *timedStore) record(id, op string, start time.Time, bytes int) {
	if id == "" {
		return
	}
	s.tr.mu.Lock()
	s.tr.stores[id] = append(s.tr.stores[id], storeOp{op, interval{start, time.Now()}, bytes})
	s.tr.mu.Unlock()
}

func (s *timedStore) PutJob(rec store.Record) error {
	start := time.Now()
	err := s.inner.PutJob(rec)
	s.record(rec.ID, "PutJob", start, len(rec.Request))
	return err
}

func (s *timedStore) PutResult(id string, result json.RawMessage) error {
	start := time.Now()
	err := s.inner.PutResult(id, result)
	s.record(id, "PutResult", start, len(result))
	return err
}

func (s *timedStore) GetResult(id string) (json.RawMessage, bool, error) {
	start := time.Now()
	raw, ok, err := s.inner.GetResult(id)
	s.record(id, "GetResult", start, len(raw))
	return raw, ok, err
}

func (s *timedStore) List() ([]store.Record, error) { return s.inner.List() }

func (s *timedStore) Delete(id string) error {
	start := time.Now()
	err := s.inner.Delete(id)
	s.record(id, "Delete", start, 0)
	return err
}

func (s *timedStore) Sweep(cutoff time.Time) ([]string, error) { return s.inner.Sweep(cutoff) }

func (s *timedStore) PutMeta(key string, value json.RawMessage) error {
	return s.inner.PutMeta(key, value)
}

func (s *timedStore) GetMeta(key string) (json.RawMessage, bool, error) { return s.inner.GetMeta(key) }

func (s *timedStore) PutCheckpoint(id string, cp json.RawMessage) error {
	start := time.Now()
	err := s.inner.PutCheckpoint(id, cp)
	s.record(id, "PutCheckpoint", start, len(cp))
	return err
}

func (s *timedStore) GetCheckpoint(id string) (json.RawMessage, bool, error) {
	start := time.Now()
	raw, ok, err := s.inner.GetCheckpoint(id)
	s.record(id, "GetCheckpoint", start, len(raw))
	return raw, ok, err
}

func (s *timedStore) Close() error { return s.inner.Close() }

// traceEvent is one Chrome trace-event record; Perfetto and
// chrome://tracing open a {"traceEvents": [...]} file of them.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Lanes of one job's track. Each lane holds properly nested spans, as
// the trace viewers require; stage spans of parallel variants get one
// lane each from laneStage on.
const (
	laneClient = iota
	laneEngine
	laneStore
	laneWorker
	laneStage
	lanesPerJob = 16
)

var laneNames = [...]string{"client/api", "engine/executor", "store", "worker executor"}

// traceEvents renders the timed jobs as one process (pid) with one
// group of lanes per job: client → api → engine → executor (gateway,
// then worker) → stage spans, and the job's store calls.
func traceEvents(pid int, workloadName string, epoch time.Time, outs []outcome, tr *tracer) []traceEvent {
	us := func(t time.Time) float64 { return float64(t.Sub(epoch).Nanoseconds()) / 1e3 }
	var evs []traceEvent
	meta := func(tid int, name string) {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
	}
	span := func(tid int, cat, name string, iv interval, args map[string]any) {
		if iv.start.IsZero() || iv.end.IsZero() {
			return
		}
		evs = append(evs, traceEvent{Name: name, Cat: cat, Ph: "X", Ts: us(iv.start), Dur: us(iv.end) - us(iv.start), Pid: pid, Tid: tid, Args: args})
	}
	evs = append(evs, traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": workloadName}})
	for i, o := range outs {
		if o.client.start.IsZero() {
			continue
		}
		base := i * lanesPerJob
		for lane, name := range laneNames {
			meta(base+lane, fmt.Sprintf("job %d %s", i, name))
		}
		args := map[string]any{"job_id": o.jobID}
		if o.err != nil {
			args["error"] = o.err.Error()
		}
		span(base+laneClient, "client", fmt.Sprintf("job %d", i), o.client, args)
		span(base+laneClient, "api", "submit", o.submit, nil)
		for _, p := range o.polls {
			span(base+laneClient, "api", "poll", p, nil)
		}
		span(base+laneClient, "api", "result", o.result, nil)
		if s := o.snap; s.FinishedAt != nil {
			span(base+laneEngine, "engine", "engine job", interval{s.SubmittedAt, *s.FinishedAt}, nil)
			if s.StartedAt != nil {
				span(base+laneEngine, "engine", "queue_wait", interval{s.SubmittedAt, *s.StartedAt}, nil)
			}
		}
		for _, rec := range tr.execRecords(ridTimed(i)) {
			lane := base + laneEngine
			if rec.tier == tierWorker {
				lane = base + laneWorker
			}
			span(lane, "executor", "execute "+rec.tier, rec.wall, map[string]any{"checkpoints": rec.checkpoints})
			for _, cb := range rec.callbacks {
				span(lane, "executor", "progress callback", cb, nil)
			}
		}
		if inner := innermost(tr.execRecords(ridTimed(i))); inner != nil {
			lanes, n := stageLanes(inner.stages)
			for k, s := range inner.stages {
				span(base+laneStage+lanes[k], "stage", s.name, s.interval, nil)
			}
			for l := range n {
				meta(base+laneStage+l, fmt.Sprintf("job %d stages %d", i, l))
			}
		}
		for _, op := range tr.storeOps(o.jobID) {
			span(base+laneStore, "store", op.op, op.interval, map[string]any{"bytes": op.bytes})
		}
	}
	return evs
}

// stageLanes assigns overlapping stage spans to separate lanes, first
// fit in start order, within the lanes a job has. It returns each span's
// lane and the number of lanes used.
func stageLanes(stages []stageSpan) ([]int, int) {
	order := make([]int, len(stages))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return stages[order[a]].start.Before(stages[order[b]].start) })
	lanes := make([]int, len(stages))
	var ends []time.Time
	for _, k := range order {
		s := stages[k]
		lane := -1
		for l, end := range ends {
			if !s.start.Before(end) {
				lane = l
				break
			}
		}
		if lane < 0 {
			if len(ends) == lanesPerJob-laneStage {
				lane = len(ends) - 1 // out of lanes: overlap in the last one
			} else {
				ends = append(ends, time.Time{})
				lane = len(ends) - 1
			}
		}
		if s.end.After(ends[lane]) {
			ends[lane] = s.end
		}
		lanes[k] = lane
	}
	return lanes, len(ends)
}

// innermost is the record of the executor that ran the pipeline: the
// worker's when a gateway dispatched the job.
func innermost(recs []*execRecord) *execRecord {
	var out *execRecord
	for _, r := range recs {
		if out == nil || r.tier == tierWorker {
			out = r
		}
	}
	return out
}

// outermost is the record of the executor the client-facing engine
// called.
func outermost(recs []*execRecord) *execRecord {
	for _, r := range recs {
		if r.tier != tierWorker {
			return r
		}
	}
	return nil
}

func writeTrace(path string, evs []traceEvent) error {
	raw, err := json.Marshal(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// ridTimed and ridWarmup are the request ids the clients send, so the
// executor records of a job can be found by its index.
func ridTimed(i int) string { return fmt.Sprintf("bench-t%05d", i) }

func ridWarmup(setup, k int) string { return fmt.Sprintf("bench-w%d-%03d", setup, k) }

// stageKind maps a span name ("train/rf", "discover/xgb/bi") to the
// layer it measures, or "" for spans that are not a layer metric.
func stageKind(name string) string {
	switch {
	case name == "simulate":
		return "funcs.simulate_s"
	case strings.HasPrefix(name, "train/"):
		return "metamodel.train_s"
	case strings.HasPrefix(name, "label/"):
		return "core.label_s"
	case strings.HasPrefix(name, "discover/") && strings.HasSuffix(name, "/prim"):
		return "prim.discover_s"
	case strings.HasPrefix(name, "discover/") && strings.HasSuffix(name, "/bi"):
		return "bi.discover_s"
	}
	return ""
}
