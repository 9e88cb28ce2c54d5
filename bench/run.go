package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/metrics"
	"github.com/reds-go/reds/internal/sample"
)

// runConfig is one run of one workload.
type runConfig struct {
	w    workload
	seed int64
	// seconds caps the timed phase; jobs not started by then are skipped.
	seconds float64
	// jobs overrides the workload's timed job count when > 0; only the
	// smoke test's short runs set it.
	jobs int
	// setups is how many times the harness is booted and warmed up;
	// setup_s is the median.
	setups int
	traced bool
}

// testN is the size of the test set each best box is scored on (the
// paper's TestN).
const testN = 20_000

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadRun is what one run of one workload measured and checked.
type workloadRun struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Correct   bool     `json:"correct"`
	Errors    []string `json:"errors,omitempty"`
	// JobsPerS is the timed phase's throughput, traced or not (the traced
	// run's feeds trace.overhead_ratio).
	JobsPerS float64 `json:"jobs_per_s"`
	// Metrics are the end-to-end metrics (untraced run), Layers the
	// per-layer ones (traced run).
	Metrics map[string]metricValue `json:"metrics,omitempty"`
	Layers  map[string]metricValue `json:"layers,omitempty"`
	// Digests[i] is timed job i's result digest ("" when it did not run
	// or failed).
	Digests []string `json:"digests"`

	trace []traceEvent
}

// counters are the cumulative counters read before and after timing.
type counters struct {
	model, label, ruleset engine.CacheStats
	dispatched            map[string]int64
	failovers             int64
}

func readCounters(h harness) counters {
	var c counters
	for _, x := range h.executors() {
		c.model = addStats(c.model, x.CacheStats())
		c.label = addStats(c.label, x.LabelCacheStats())
		c.ruleset = addStats(c.ruleset, x.RulesetCacheStats())
	}
	if d := h.dispatcher(); d != nil {
		c.dispatched, c.failovers = d.Stats()
	}
	return c
}

func addStats(a, b engine.CacheStats) engine.CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	return a
}

// runWorkload boots the workload's harness cfg.setups times, times the
// job sequence on the last one, and checks every result.
func runWorkload(ctx context.Context, cfg runConfig) (*workloadRun, error) {
	w := cfg.w
	jobs := w.jobs
	if cfg.jobs > 0 {
		jobs = cfg.jobs
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}

	var h harness
	var setups []float64
	for s := 0; s < max(cfg.setups, 1); s++ {
		if h != nil {
			h.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if h, err = newHarness(w.harness, tr); err != nil {
			return nil, err
		}
		warm := w.warmup(cfg.seed)
		for _, o := range runClients(ctx, h, w.clients, len(warm), time.Time{}, func(k int) (string, engine.Request) {
			return ridWarmup(s, k), warm[k]
		}) {
			if o.err != nil {
				h.close()
				return nil, fmt.Errorf("%s warm-up job: %w", w.name, o.err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	tr.reset()
	runtime.GC()

	before := readCounters(h)
	cpu0 := cpuSeconds()
	epoch := time.Now()
	outs := runClients(ctx, h, w.clients, jobs, epoch.Add(time.Duration(cfg.seconds*float64(time.Second))),
		func(i int) (string, engine.Request) { return ridTimed(i), w.request(cfg.seed, i) })
	wall := time.Since(epoch).Seconds()
	cpu := cpuSeconds() - cpu0
	rss := maxRSSMiB()
	after := readCounters(h)
	h.close()

	run, wraccs := checkOutcomes(ctx, cfg, outs)
	var lat []float64
	for _, o := range outs {
		if o.err == nil && o.res != nil {
			lat = append(lat, o.client.seconds())
		}
	}
	run.JobsPerS = float64(len(lat)) / wall
	if cfg.traced {
		run.Layers = layerMetrics(outs, tr, before, after, w.harness, w.request(cfg.seed, 0))
		run.trace = traceEvents(1, w.name, epoch, outs, tr)
		return run, nil
	}
	run.Metrics = map[string]metricValue{}
	put := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return // no samples: every job failed
		}
		spec, _ := specByName(name)
		run.Metrics[name] = metricValue{v, spec.unit}
	}
	put("setup_s", median(setups))
	put("jobs_per_s", run.JobsPerS)
	put("latency_p50_s", median(lat))
	put("cpu_s_per_job", cpu/float64(max(len(lat), 1)))
	put("rss_peak_mib", rss)
	put("wracc_test_mean", mean(wraccs))
	put("failed_ratio", float64(run.Failed)/float64(max(run.Attempted, 1)))
	return run, nil
}

// runClients runs jobs 0..n-1 on the harness from `clients` closed-loop
// clients sharing one job counter. No job starts after deadline (zero:
// none). Jobs that never started keep a zero outcome.
func runClients(ctx context.Context, h harness, clients, n int, deadline time.Time, job func(int) (string, engine.Request)) []outcome {
	outs := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				rid, req := job(i)
				outs[i] = h.run(ctx, rid, req)
			}
		}()
	}
	wg.Wait()
	return outs
}

// checkOutcomes checks every timed job and returns the run with its
// digests and failure counts, plus each good job's test-set WRAcc.
//
// A job fails when it did not end done with a decoded result, when its
// best box is missing, has a non-finite WRAcc or a test WRAcc <= 0, when
// a repeat of a request returns another result than its first run, or
// (job 0 only) when a fresh in-process LocalExecutor returns another
// result for the same request — which checks that the HTTP and gateway
// routes give the in-process answer.
func checkOutcomes(ctx context.Context, cfg runConfig, outs []outcome) (*workloadRun, []float64) {
	run := &workloadRun{Digests: make([]string, len(outs))}
	failed := map[int]bool{}
	fail := func(i int, format string, args ...any) {
		failed[i] = true
		if len(run.Errors) < 20 {
			run.Errors = append(run.Errors, fmt.Sprintf("job %d: ", i)+fmt.Sprintf(format, args...))
		}
	}
	tests := map[string]*dataset.Dataset{}
	testWRAcc := map[string]float64{}
	firstRun := map[int64]int{}
	var wraccs []float64
	for i, o := range outs {
		if o.client.start.IsZero() {
			continue
		}
		run.Attempted++
		req := cfg.w.request(cfg.seed, i)
		if o.err != nil || o.res == nil {
			fail(i, "%v", o.err)
			continue
		}
		best := o.res.Best
		if best.Box == nil || math.IsNaN(best.WRAcc) || math.IsInf(best.WRAcc, 0) {
			fail(i, "best variant has no box or a non-finite WRAcc (%v)", best.WRAcc)
			continue
		}
		digest, err := digestOf(o.res)
		if err != nil {
			fail(i, "%v", err)
			continue
		}
		run.Digests[i] = digest
		if k, ok := firstRun[req.Seed]; ok && run.Digests[k] != "" && run.Digests[k] != digest {
			fail(i, "repeat of job %d's request returned another result", k)
			continue
		} else if !ok {
			firstRun[req.Seed] = i
		}
		wr, ok := testWRAcc[digest]
		if !ok {
			test := tests[req.Function]
			if test == nil {
				if test, err = testSet(req.Function, cfg.seed); err != nil {
					fail(i, "%v", err)
					continue
				}
				tests[req.Function] = test
			}
			wr = metrics.WRAcc(best.Box, test)
			testWRAcc[digest] = wr
		}
		if !(wr > 0) {
			fail(i, "best box has test WRAcc %v, want > 0", wr)
			continue
		}
		wraccs = append(wraccs, wr)
	}
	if len(outs) > 0 && run.Digests[0] != "" {
		res, err := engine.NewLocalExecutor(engine.LocalExecutorOptions{}).Execute(ctx, cfg.w.request(cfg.seed, 0), nil)
		if err != nil {
			fail(0, "fresh in-process re-run: %v", err)
		} else if d, err := digestOf(res); err != nil || d != run.Digests[0] {
			fail(0, "%s result differs from a fresh in-process LocalExecutor's", cfg.w.harness)
		}
	}
	run.Failed = len(failed)
	run.Correct = run.Failed == 0 && run.Attempted > 0
	return run, wraccs
}

// testSet draws the paper's uniform test set from a function, seeded by
// the run seed.
func testSet(name string, seed int64) (*dataset.Dataset, error) {
	f, err := funcs.Get(name)
	if err != nil {
		return nil, err
	}
	return funcs.Generate(f, testN, sample.Uniform{}, rand.New(rand.NewSource(jobSeed(seed, "test/"+name, 0)))), nil
}

// digestOf is the SHA-256 of the result's JSON with the fields that
// depend on timing or cache state zeroed, and without the rule-set
// export GET /result strips.
func digestOf(res *engine.Result) (string, error) {
	norm := func(v engine.VariantResult) engine.VariantResult {
		v.CacheHit, v.LabelCacheHit, v.Resumed = false, false, false
		v.Ruleset = nil
		return v
	}
	cp := *res
	cp.ElapsedSeconds = 0
	cp.Best = norm(cp.Best)
	cp.Variants = make([]engine.VariantResult, len(res.Variants))
	for i, v := range res.Variants {
		cp.Variants[i] = norm(v)
	}
	raw, err := json.Marshal(&cp)
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// maxRSSMiB is the process's peak resident set (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// layerMetrics turns the traced run's records into per-layer metrics:
// medians per job for times, means per job for counts and sizes. Metrics
// of a path the workload does not take (HTTP polling, cluster, fast
// paths) are left out.
func layerMetrics(outs []outcome, tr *tracer, before, after counters, kind harnessKind, req engine.Request) map[string]metricValue {
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var variants, binned, distilled int
	var fidelity []float64
	for i, o := range outs {
		if o.err != nil || o.res == nil {
			continue
		}
		add("api.submit_s", o.submit.seconds())
		add("api.result_s", o.result.seconds())
		if kind != inProcess {
			add("api.polls_per_job", float64(len(o.polls)))
		}
		s := o.snap
		var engineWall float64
		if s.FinishedAt != nil {
			engineWall = s.FinishedAt.Sub(s.SubmittedAt).Seconds()
			add("api.overhead_s", o.client.seconds()-engineWall)
		}
		for _, t := range s.Timings {
			if t.Stage == "queue_wait" {
				add("engine.queue_wait_s", t.Seconds)
			}
		}
		recs := tr.execRecords(ridTimed(i))
		if outer := outermost(recs); outer != nil {
			if s.FinishedAt != nil {
				add("engine.overhead_s", engineWall-outer.wall.seconds())
			}
			cb := 0.0
			for _, c := range outer.callbacks {
				cb += c.seconds()
			}
			add("engine.progress_cb_s", cb)
			add("engine.checkpoints_per_job", float64(outer.checkpoints))
			if inner := innermost(recs); inner != outer {
				add("cluster.dispatch_overhead_s", outer.wall.seconds()-inner.wall.seconds())
			}
		}
		if inner := innermost(recs); inner != nil {
			add("exec.wall_s", inner.wall.seconds())
			covered := append([]interval(nil), inner.callbacks...)
			byKind := map[string][]interval{}
			for _, st := range inner.stages {
				covered = append(covered, st.interval)
				if k := stageKind(st.name); k != "" {
					byKind[k] = append(byKind[k], st.interval)
				}
			}
			add("exec.unattributed_s", inner.wall.seconds()-unionSeconds(covered, inner.wall))
			for k, ivs := range byKind {
				add(k, unionSeconds(ivs, inner.wall))
			}
		}
		ops := tr.storeOps(o.jobID)
		var cpSecs float64
		var cpBytes int
		for _, op := range ops {
			switch op.op {
			case "PutCheckpoint":
				cpSecs += op.seconds()
				cpBytes += op.bytes
			case "PutResult":
				add("store.put_result_s", op.seconds())
			}
		}
		add("store.put_checkpoint_s", cpSecs)
		add("store.checkpoint_mib_per_job", float64(cpBytes)/(1<<20))
		add("store.ops_per_job", float64(len(ops)))
		for _, v := range o.res.Variants {
			variants++
			if v.TrainMode == "binned" {
				binned++
			}
			if v.LabelKernel == "distilled" {
				distilled++
			}
			if v.LabelFidelity > 0 {
				fidelity = append(fidelity, v.LabelFidelity)
			}
		}
	}

	out := map[string]metricValue{}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		spec, _ := specByName(name)
		out[name] = metricValue{v, spec.unit}
	}
	for name, xs := range samples {
		if spec, _ := specByName(name); spec.unit == "s" {
			set(name, median(xs))
		} else {
			set(name, mean(xs))
		}
	}
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	set("cache.model_hit_ratio", ratio(after.model.Hits-before.model.Hits, after.model.Misses-before.model.Misses))
	set("cache.label_hit_ratio", ratio(after.label.Hits-before.label.Hits, after.label.Misses-before.label.Misses))
	set("cache.evictions", float64(after.model.Evictions+after.label.Evictions+after.ruleset.Evictions-
		before.model.Evictions-before.label.Evictions-before.ruleset.Evictions))
	if req.TrainMode == "binned" {
		set("metamodel.binned_ratio", float64(binned)/float64(max(variants, 1)))
	}
	if req.LabelKernel == "distilled" {
		set("cache.ruleset_hit_ratio", ratio(after.ruleset.Hits-before.ruleset.Hits, after.ruleset.Misses-before.ruleset.Misses))
		set("ruleset.distilled_ratio", float64(distilled)/float64(max(variants, 1)))
		set("ruleset.fidelity_mean", mean(fidelity))
	}
	if after.dispatched != nil {
		lo, hi := int64(math.MaxInt64), int64(0)
		for node, n := range after.dispatched {
			n -= before.dispatched[node]
			lo, hi = min(lo, n), max(hi, n)
		}
		set("cluster.worker_skew", float64(hi)/float64(max(lo, 1)))
		set("cluster.failovers", float64(after.failovers-before.failovers))
	}
	return out
}
