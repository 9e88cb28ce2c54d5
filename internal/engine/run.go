package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reds-go/reds/internal/bi"
	"github.com/reds-go/reds/internal/core"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/gbt"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/metrics"
	"github.com/reds-go/reds/internal/prim"
	"github.com/reds-go/reds/internal/rf"
	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/sd"
	"github.com/reds-go/reds/internal/svm"
)

// variantSeedStride separates the RNG streams of a job's variants.
const variantSeedStride = 1009

// labelSeedOffset derives a metamodel family's pseudo-label sampling
// seed from its training seed. It is not a multiple of (or congruent
// mod) variantSeedStride, so label seeds never collide with any
// family's training seed or any variant's pipeline seed.
const labelSeedOffset = 577

func knownMetamodel(name string) bool {
	switch name {
	case "rf", "xgb", "svm":
		return true
	}
	return false
}

func knownSD(name string) bool {
	switch name {
	case "prim", "bumping", "bi":
		return true
	}
	return false
}

// trainerByName builds the metamodel trainer for one variant. binned
// selects the histogram fast path (resolved upstream — svm never
// reaches here with binned set). Its bin budget stays 0, which the
// binned trainers read as dataset.DefaultBins: tuned candidates derive
// their seeds from their configuration, Bins included, so spelling 64
// would re-seed every tuned binned result.
func trainerByName(name string, m int, tuned, binned bool) metamodel.Trainer {
	switch name {
	case "xgb":
		if binned {
			if tuned {
				return gbt.TunedTrainerBinned(0)
			}
			return &gbt.BinnedTrainer{}
		}
		if tuned {
			return gbt.TunedTrainer()
		}
		return &gbt.Trainer{}
	case "svm":
		if tuned {
			return svm.TunedTrainer()
		}
		return &svm.Trainer{}
	default: // "rf"
		if binned {
			if tuned {
				return rf.TunedTrainerBinned(m, 0)
			}
			return &rf.BinnedTrainer{}
		}
		if tuned {
			return rf.TunedTrainer(m)
		}
		return &rf.Trainer{}
	}
}

// sdByName builds the subgroup-discovery stage.
func sdByName(name string) sd.Discoverer {
	switch name {
	case "bumping":
		return &prim.Bumping{}
	case "bi":
		return &bi.BI{}
	default: // "prim"
		return &prim.Peeler{}
	}
}

func samplerByName(name string) (sample.Sampler, error) {
	switch name {
	case "", "lhs":
		return sample.LatinHypercube{}, nil
	case "uniform":
		return sample.Uniform{}, nil
	case "halton":
		return &sample.Halton{}, nil
	case "logitnormal":
		return &sample.LogitNormal{}, nil
	case "mixed":
		return &sample.Mixed{}, nil
	default:
		return nil, fmt.Errorf("engine: unknown sampler %q (want lhs, uniform, halton, logitnormal or mixed)", name)
	}
}

type variantSpec struct {
	metamodel string
	sd        string
}

func buildVariants(req Request) []variantSpec {
	mms := req.Metamodels
	if len(mms) == 0 {
		mms = []string{"rf"}
	}
	sds := req.SD
	if len(sds) == 0 {
		sds = []string{"prim"}
	}
	var out []variantSpec
	for _, mm := range mms {
		for _, s := range sds {
			out = append(out, variantSpec{metamodel: mm, sd: s})
		}
	}
	return out
}

// Execute implements Executor: apply the request's wall-clock deadline
// (if any), then run the pipeline. The deadline budget is checkpoint-
// aware — a resumed execution inherits what earlier executions already
// spent (Checkpoint.ElapsedSeconds) — and a trip is reported as
// ErrDeadlineExceeded, distinct from both caller cancellation (the
// parent context ending) and worker unavailability (ErrUnavailable), so
// the engine fails the job instead of re-routing or "canceling" it.
func (x *LocalExecutor) Execute(ctx context.Context, req Request, onProgress func(Progress)) (*Result, error) {
	if req.DeadlineSeconds <= 0 {
		return x.execute(ctx, req, onProgress)
	}
	budget := req.DeadlineSeconds
	spent := 0.0
	if cp := req.Checkpoint; cp != nil {
		spent = cp.ElapsedSeconds
	}
	if budget-spent <= 0 {
		return nil, fmt.Errorf("engine: %w: earlier executions already spent %.1fs of the %gs budget",
			ErrDeadlineExceeded, spent, budget)
	}
	dctx, cancel := context.WithTimeout(ctx, time.Duration((budget-spent)*float64(time.Second)))
	defer cancel()
	res, err := x.execute(dctx, req, onProgress)
	if err != nil && dctx.Err() != nil && ctx.Err() == nil {
		// The budget ran out (the parent is still alive, so this is not a
		// cancel or shutdown): surface the deadline as the job's failure.
		return nil, fmt.Errorf("engine: %w after %gs (deadline_seconds=%g, %.1fs spent before this execution)",
			ErrDeadlineExceeded, budget-spent, budget, spent)
	}
	return res, err
}

// execute resolves the training data, fans the variant grid out as
// concurrent sub-tasks, and ranks the outcomes.
func (x *LocalExecutor) execute(ctx context.Context, req Request, onProgress func(Progress)) (*Result, error) {
	sink := newProgressSink(onProgress)
	start := time.Now()
	seed := req.effectiveSeed()
	l := req.effectiveL()
	smp, err := samplerByName(req.Sampler)
	if err != nil {
		return nil, err
	}

	var train *dataset.Dataset
	if req.Function != "" {
		f, err := funcs.Get(req.Function)
		if err != nil {
			return nil, err
		}
		sink.update(func(p *Progress) { p.Stage = "simulate" })
		simStart := time.Now()
		train = funcs.Generate(f, req.effectiveN(), smp, rand.New(rand.NewSource(seed)))
		simSecs := time.Since(simStart).Seconds()
		x.stageSeconds.With("simulate", "", "").Observe(simSecs)
		sink.addSpan(StageTiming{Stage: "simulate", Seconds: simSecs})
	} else {
		train = req.Dataset
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	hash := train.Hash()

	// A forwarded checkpoint lets this execution reuse an earlier one's
	// work — but only if it was computed from the same training data.
	cp := req.Checkpoint
	if cp != nil {
		if cp.DatasetHash != hash {
			x.mCheckpointRejected.Inc()
			cp = nil
		} else {
			x.mCheckpointResumes.Inc()
			// The earlier execution's closed spans become the head of this
			// execution's trace: the job's final timings show each stage
			// once, whoever ran it.
			sink.preload(cp.Timings)
		}
	}
	ckpt := newCheckpointRecorder(cp, hash, sink)
	finished := make(map[variantSpec]VariantResult)
	if cp != nil {
		for _, vr := range cp.Variants {
			if vr.Error == "" {
				finished[variantSpec{metamodel: vr.Metamodel, sd: vr.SD}] = vr
			}
		}
	}

	variants := buildVariants(req)
	sink.update(func(p *Progress) {
		p.VariantsTotal = len(variants)
		p.LabelTotal = l * len(variants)
	})

	// Training seeds are per metamodel *family*, not per variant, so the
	// SD variants of one family share a single cache entry (the
	// singleflight trains once, concurrently-started siblings wait).
	familySeed := make(map[string]int64)
	for _, v := range variants {
		if _, ok := familySeed[v.metamodel]; !ok {
			familySeed[v.metamodel] = seed + int64(len(familySeed)+1)*variantSeedStride
		}
	}
	results := make([]VariantResult, len(variants))
	// running counts the variants still to finish. The last one to
	// finish publishes no checkpoint: the result supersedes it at once.
	var running atomic.Int64
	for _, v := range variants {
		if _, ok := finished[v]; !ok {
			running.Add(1)
		}
	}
	var wg sync.WaitGroup
	for vi, v := range variants {
		if vr, ok := finished[v]; ok {
			// The checkpoint already carries this variant's result: reuse
			// it verbatim. Its spans are in the preloaded trace; account
			// its full labeling share so the job-level counters add up.
			vr.Resumed = true
			results[vi] = vr
			x.mCheckpointVariantsSkipped.Inc()
			sink.update(func(p *Progress) {
				p.VariantsDone++
				p.LabelDone += l
			})
			continue
		}
		wg.Add(1)
		go func(vi int, v variantSpec) {
			defer wg.Done()
			vr := x.runVariant(ctx, req, sink, train, hash, smp, l, v, variantConfig{
				pipelineSeed: seed + int64(vi+1)*variantSeedStride,
				trainSeed:    familySeed[v.metamodel],
				checkpoints:  ckpt,
			})
			results[vi] = vr
			if running.Add(-1) > 0 && vr.Error == "" {
				ckpt.variantDone(vr)
			}
			sink.update(func(p *Progress) { p.VariantsDone++ })
		}(vi, v)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rankVariants(results)
	if results[0].Error != "" {
		return nil, fmt.Errorf("engine: all %d variants failed; first: %s", len(results), results[0].Error)
	}
	return &Result{
		Best:               results[0],
		Variants:           results,
		TrainN:             train.N(),
		TrainPositiveShare: train.PositiveShare(),
		DatasetHash:        hash,
		ElapsedSeconds:     time.Since(start).Seconds(),
	}, nil
}

// variantConfig carries the per-variant execution parameters:
// pipelineSeed drives the SD stage (unique per variant); trainSeed
// drives metamodel training and, through fixed offsets, distillation
// and pseudo-labeling (shared across a family, so its SD variants share
// one entry of each cache).
type variantConfig struct {
	pipelineSeed int64
	trainSeed    int64
	// checkpoints records this execution's reusable work and serves the
	// inbound checkpoint's models for stage skipping.
	checkpoints *checkpointRecorder
}

// runVariant executes one metamodel × SD combination of a request
// (Algorithm 4): it trains the metamodel through the model cache — or
// seeds the cache with the model of the checkpoint it resumes from —
// resolves the labeling kernel, pseudo-labels through the label cache
// and runs the SD algorithm on the result. Each stage's span closes
// where the stage ends.
//
// Every artifact is cached under a key that extends the key of the
// artifact it derives from with everything else that determines it:
//
//	model:   <dataset hash>|<family>|tuned=<bool>|seed=<train seed>[|mode=binned]
//	ruleset: <model key>|distill|maxrules=<n>|dseed=<distill seed>
//	labels:  <labeler key>|sampler=<name>|L=<l>|lseed=<label seed>|prob=<bool>
//
// The labeler key is the key of the model that labels: the ensemble's,
// or the rule set's when the distilled kernel does. An approximation
// therefore never serves a request for anything else — binned models
// never serve exact requests, distilled labels never serve a
// full-kernel request or one with another rule budget — while the SD
// variants of one family, which differ in nothing these keys hold,
// share every artifact.
func (x *LocalExecutor) runVariant(ctx context.Context, req Request, sink *progressSink, train *dataset.Dataset, hash string, smp sample.Sampler, l int, v variantSpec, cfg variantConfig) VariantResult {
	out := VariantResult{Metamodel: v.metamodel, SD: v.sd}
	// enter makes stage the variant's current one and returns the
	// function that closes its span: recorded into the job trace under
	// its variant-qualified name and observed in the stage-latency
	// histogram. A cache hit closes a ~0s span — the stage really did
	// cost nothing.
	enter := func(stage string) (exit func()) {
		sink.update(func(p *Progress) { p.Stage = stage })
		start := time.Now()
		return func() {
			secs := time.Since(start).Seconds()
			name := stage + "/" + v.metamodel
			if stage == "discover" {
				name += "/" + v.sd
			}
			x.stageSeconds.With(stage, v.metamodel, v.sd).Observe(secs)
			sink.addSpan(StageTiming{Stage: name, Seconds: secs})
		}
	}
	// Labeling reports may arrive out of order across workers; fold them
	// into a monotone per-variant count so the execution-level sum stays
	// exact.
	var labeled atomic.Int64
	labelProgress := func(done, _ int) {
		for {
			old := labeled.Load()
			if int64(done) <= old {
				return
			}
			if labeled.CompareAndSwap(old, int64(done)) {
				sink.update(func(p *Progress) { p.LabelDone += int(int64(done) - old) })
				return
			}
		}
	}

	// The training mode resolves before the model key is formed. svm has
	// no tree growth to bin, so a binned svm request trains exact, says
	// why, and shares the exact entry, because its model is the exact
	// model.
	out.TrainMode = req.effectiveTrainMode()
	if out.TrainMode == "binned" && v.metamodel == "svm" {
		out.TrainMode, out.TrainFallbackReason = "exact", "unsupported"
		x.mTrainFallback.Inc()
	}
	binned := out.TrainMode == "binned"
	modelKey := fmt.Sprintf("%s|%s|tuned=%v|seed=%d", hash, v.metamodel, req.Tuned, cfg.trainSeed)
	if binned {
		modelKey += "|mode=binned"
	}
	distillSeed := cfg.trainSeed + distillSeedOffset
	rulesetKey := fmt.Sprintf("%s|distill|maxrules=%d|dseed=%d", modelKey, req.DistillMaxRules, distillSeed)
	labelSeed := cfg.trainSeed + labelSeedOffset
	labelKey := func(labelerKey string) string {
		return fmt.Sprintf("%s|sampler=%s|L=%d|lseed=%d|prob=%v", labelerKey, req.effectiveSampler(), l, labelSeed, req.ProbLabels)
	}

	// A checkpointed model lets the variant skip training: it seeds the
	// model cache, so sibling variants decode it once and later jobs hit
	// it, and the variant goes on exactly as a fresh run does. A model
	// that does not decode is trained instead.
	var model metamodel.Model
	if data := cfg.checkpoints.resumeModel(v.metamodel, modelKey); data != nil {
		model, out.CacheHit, _ = x.models.getOrCompute(modelKey, func() (metamodel.Model, error) {
			return decodeModel(v.metamodel, data, train.M())
		})
	}
	if model == nil {
		exit := enter("train")
		trainer := trainerByName(v.metamodel, train.M(), req.Tuned, binned)
		// Training draws from its own seed, so the model is the same
		// whichever variant or job trains it.
		var err error
		model, out.CacheHit, err = x.models.getOrCompute(modelKey, func() (metamodel.Model, error) {
			start := time.Now()
			m, err := trainer.Train(train, rand.New(rand.NewSource(cfg.trainSeed)))
			if err == nil {
				x.mTrainSeconds.With(v.metamodel, out.TrainMode).Observe(time.Since(start).Seconds())
			}
			return m, err
		})
		exit()
		if err != nil {
			out.Error = fmt.Sprintf("core: training metamodel %s: %v", trainer.Name(), err)
			return out
		}
		cfg.checkpoints.trainStageDone(v.metamodel, modelKey, model)
	}
	if err := ctx.Err(); err != nil {
		out.Error = err.Error()
		return out
	}

	// core.PseudoLabel samples and labels in one cache computation, so
	// the sample span is ~0s and the label span covers both.
	enter("sample")()
	exit := enter("label")
	// The kernel resolves here, not at submission: the distiller needs
	// the trained model.
	labeler, report := x.resolveKernel(req, rulesetKey, model, train.M(), distillSeed)
	out.KernelReport = report
	key := labelKey(modelKey)
	if report.LabelKernel == "distilled" {
		key = labelKey(rulesetKey)
	}
	dnew, hit, err := x.labels.getOrCompute(key, func() (*dataset.Dataset, error) {
		d, err := core.PseudoLabel(ctx, labeler, smp, l, train.M(), labelSeed, req.ProbLabels, labelProgress)
		if err != nil {
			return nil, err
		}
		d.Discrete = train.Discrete
		return d, nil
	})
	exit()
	if err != nil {
		out.Error = err.Error()
		return out
	}
	out.LabelCacheHit = hit
	if hit {
		// Another variant or an earlier job labeled the set: count its
		// full share so the job-level counters still add up.
		labelProgress(l, l)
	}

	// The SD stage is the only one that draws from the variant's
	// pipeline RNG. It validates on the real examples.
	exit = enter("discover")
	res, err := sdByName(v.sd).Discover(dnew, train, rand.New(rand.NewSource(cfg.pipelineSeed)))
	exit()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		out.Error = err.Error()
		return out
	}
	final := res.Final()
	if final == nil {
		out.Error = "discovery returned an empty trajectory"
		return out
	}
	out.Box = final
	out.Rule = final.String()
	out.Precision, out.Recall = metrics.PrecisionRecall(final, train)
	out.WRAcc = metrics.WRAcc(final, train)
	out.Trajectory = metrics.Trajectory(res, train)
	out.PRAUC = metrics.PRAUC(out.Trajectory)
	return out
}

// rankVariants sorts best-first: successful variants by WRAcc then PR
// AUC on the real examples, failed variants last.
func rankVariants(results []VariantResult) {
	sort.SliceStable(results, func(a, b int) bool {
		ra, rb := &results[a], &results[b]
		if (ra.Error == "") != (rb.Error == "") {
			return ra.Error == ""
		}
		if ra.WRAcc != rb.WRAcc {
			return ra.WRAcc > rb.WRAcc
		}
		return ra.PRAUC > rb.PRAUC
	})
}
