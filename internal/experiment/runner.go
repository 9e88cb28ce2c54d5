package experiment

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/reds-go/reds/internal/box"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/metrics"
	"github.com/reds-go/reds/internal/par"
	"github.com/reds-go/reds/internal/sample"
)

// RepOutcome is the scored result of one method on one repetition.
type RepOutcome struct {
	Method     string
	Rep        int
	PRAUC      float64
	Precision  float64 // of the final box on test data
	Recall     float64
	WRAcc      float64 // of the final box on test data
	TrainWRAcc float64 // of the final box on train data (Figure 6)
	Restricted int
	Irrel      int
	Final      *box.Box
	Seconds    float64
}

// CellResult aggregates all repetitions of one (function, N) cell.
type CellResult struct {
	Function string
	N        int
	ByMethod map[string][]RepOutcome
	// Domain for consistency computations (records discrete levels).
	Domain metrics.Domain
}

// Cell is the work order for RunCell.
type Cell struct {
	Function funcs.Function
	N        int
	Reps     int
	Methods  []string
	// Sampler draws the training designs (default Latin hypercube, per
	// Section 8.5). REDS reuses it as its p(x).
	Sampler sample.Sampler
	// Mixed marks the even inputs as discrete (Section 9.1.2).
	Mixed bool
	// L overrides the REDS pseudo-dataset size per method kind.
	LPrim, LBI int
	// Test is the shared independent test set.
	Test *dataset.Dataset
	// Seed anchors this cell's randomness.
	Seed int64
	// Workers caps parallelism (0 = GOMAXPROCS; below 0, serial).
	Workers int
}

// RunCell executes Reps repetitions of every method on fresh training
// data from the cell's sampler, scoring each run on the shared test set.
// Repetitions run in parallel; within a repetition all methods see the
// same training data, enabling the paired comparisons of Section 9.
func RunCell(c Cell) (*CellResult, error) {
	if c.Function == nil || c.Test == nil {
		return nil, fmt.Errorf("experiment: cell needs a function and a test set")
	}
	if c.Reps < 1 || c.N < 1 || len(c.Methods) == 0 {
		return nil, fmt.Errorf("experiment: degenerate cell %+v", c)
	}
	smp := c.Sampler
	if smp == nil {
		smp = sample.LatinHypercube{}
	}
	resolved := make([]Method, len(c.Methods))
	for i, name := range c.Methods {
		m, err := Get(name)
		if err != nil {
			return nil, err
		}
		resolved[i] = m
	}

	dom := metrics.UnitDomain(c.Function.Dim())
	if c.Mixed {
		mask := sample.DiscreteMask(c.Function.Dim())
		dom.Levels = make([][]float64, c.Function.Dim())
		for j, disc := range mask {
			if disc {
				dom.Levels[j] = sample.MixedLevels
			}
		}
	}

	result := &CellResult{
		Function: c.Function.Name(),
		N:        c.N,
		ByMethod: make(map[string][]RepOutcome, len(resolved)),
		Domain:   dom,
	}
	outcomes := make([][]RepOutcome, c.Reps)

	workers := c.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, c.Reps)
	par.For(workers, c.Reps, func(_, rep int) {
		outcomes[rep], errs[rep] = runRep(c, smp, resolved, rep)
	})
	for rep, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: %s N=%d rep %d: %w", c.Function.Name(), c.N, rep, err)
		}
	}
	for _, out := range outcomes {
		for _, o := range out {
			result.ByMethod[o.Method] = append(result.ByMethod[o.Method], o)
		}
	}
	return result, nil
}

// runRep generates the rep's training data and runs every method on it.
func runRep(c Cell, smp sample.Sampler, resolved []Method, rep int) ([]RepOutcome, error) {
	rng := rand.New(rand.NewSource(seedFor(c.Seed, c.Function.Name(), c.N, rep, "data")))
	train := funcs.Generate(c.Function, c.N, smp, rng)
	if c.Mixed {
		train.Discrete = sample.DiscreteMask(c.Function.Dim())
	}

	out := make([]RepOutcome, 0, len(resolved))
	for _, m := range resolved {
		mcfg := MethodConfig{Sampler: smp}
		if m.Kind == PRIMBased {
			mcfg.L = c.LPrim
		} else {
			mcfg.L = c.LBI
		}
		mrng := rand.New(rand.NewSource(seedFor(c.Seed, c.Function.Name(), c.N, rep, m.Name)))
		start := time.Now()
		disc, err := m.Build(train, mcfg, mrng)
		if err != nil {
			return nil, fmt.Errorf("building %s: %w", m.Name, err)
		}
		res, err := disc.Discover(train, train, mrng)
		if err != nil {
			return nil, fmt.Errorf("running %s: %w", m.Name, err)
		}
		elapsed := time.Since(start).Seconds()

		final := res.Final()
		prec, rec := metrics.PrecisionRecall(final, c.Test)
		o := RepOutcome{
			Method:     m.Name,
			Rep:        rep,
			PRAUC:      metrics.ResultPRAUC(res, c.Test),
			Precision:  prec,
			Recall:     rec,
			WRAcc:      metrics.WRAcc(final, c.Test),
			TrainWRAcc: metrics.WRAcc(final, train),
			Restricted: final.Restricted(),
			Irrel:      metrics.Irrelevant(final, c.Function.Relevant()),
			Final:      final,
			Seconds:    elapsed,
		}
		out = append(out, o)
	}
	return out, nil
}

// seedFor derives a stable 63-bit seed from the experiment seed and a
// label tuple, so every (function, N, rep, method) sees reproducible yet
// distinct randomness.
func seedFor(base int64, name string, n, rep int, tag string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d|%s", base, name, n, rep, tag)
	return int64(h.Sum64() & (1<<63 - 1))
}

// Aggregates of a method within one cell.

// Mean returns the mean of metric over the method's outcomes.
func (c *CellResult) Mean(method string, metric func(RepOutcome) float64) float64 {
	outs := c.ByMethod[method]
	if len(outs) == 0 {
		return 0
	}
	s := 0.0
	for _, o := range outs {
		s += metric(o)
	}
	return s / float64(len(outs))
}

// Values extracts a metric column for the method.
func (c *CellResult) Values(method string, metric func(RepOutcome) float64) []float64 {
	outs := c.ByMethod[method]
	vals := make([]float64, len(outs))
	for i, o := range outs {
		vals[i] = metric(o)
	}
	return vals
}

// Consistency computes the pairwise Vo/Vu consistency of the method's
// final boxes (Definition 2) under the cell's domain.
func (c *CellResult) Consistency(method string) float64 {
	outs := c.ByMethod[method]
	boxes := make([]*box.Box, len(outs))
	for i, o := range outs {
		boxes[i] = o.Final
	}
	return metrics.Consistency(boxes, c.Domain)
}

// Metric selector helpers used by the drivers.
var (
	MetricPRAUC      = func(o RepOutcome) float64 { return o.PRAUC }
	MetricPrecision  = func(o RepOutcome) float64 { return o.Precision }
	MetricWRAcc      = func(o RepOutcome) float64 { return o.WRAcc }
	MetricTrainWRAcc = func(o RepOutcome) float64 { return o.TrainWRAcc }
	MetricRestricted = func(o RepOutcome) float64 { return float64(o.Restricted) }
	MetricIrrel      = func(o RepOutcome) float64 { return float64(o.Irrel) }
	MetricSeconds    = func(o RepOutcome) float64 { return o.Seconds }
)

// TestSet generates the shared test set for a function with a seed
// derived only from the experiment seed and the function name, so every
// cell of an experiment scores against identical data.
func TestSet(f funcs.Function, testN int, baseSeed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seedFor(baseSeed, f.Name(), testN, -1, "test")))
	return funcs.Generate(f, testN, sample.Uniform{}, rng)
}

// testSetCache shares test sets across drivers in one process.
var (
	testMu    sync.Mutex
	testCache = map[string]*dataset.Dataset{}
)

// CachedTestSet memoizes TestSet per (function, size, seed).
func CachedTestSet(f funcs.Function, testN int, baseSeed int64) *dataset.Dataset {
	return cachedTestSetWith(f, testN, baseSeed, sample.Uniform{}, "uniform")
}

// cachedTestSetWith memoizes test sets for arbitrary sampling
// distributions: non-uniform experiments (mixed inputs, semi-supervised
// logit-normal) must also evaluate under their own p(x).
func cachedTestSetWith(f funcs.Function, testN int, baseSeed int64, smp sample.Sampler, tag string) *dataset.Dataset {
	if smp == nil {
		smp, tag = sample.Uniform{}, "uniform"
	}
	key := fmt.Sprintf("%s|%d|%d|%s", f.Name(), testN, baseSeed, tag)
	testMu.Lock()
	defer testMu.Unlock()
	if d, ok := testCache[key]; ok {
		return d
	}
	rng := rand.New(rand.NewSource(seedFor(baseSeed, f.Name(), testN, -1, "test|"+tag)))
	d := funcs.Generate(f, testN, smp, rng)
	testCache[key] = d
	return d
}
