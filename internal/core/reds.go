// Package core implements REDS — Rule Extraction for Discovering
// Scenarios — the paper's contribution (Algorithm 4). REDS inserts an
// intermediate metamodel into the conventional scenario-discovery
// pipeline: train the metamodel on the few available simulations, sample
// L fresh points from the same input distribution, pseudo-label them with
// the metamodel, and hand the enlarged dataset to a conventional
// subgroup-discovery algorithm.
package core

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/sd"
)

// REDS composes a metamodel, a sampler and a subgroup-discovery
// algorithm. It implements sd.Discoverer, so it can be used anywhere a
// conventional algorithm is — including inside its own covering loop.
type REDS struct {
	// Metamodel is the intermediate model AM (Algorithm 4, line 2).
	Metamodel metamodel.Trainer
	// Sampler draws the L new points from p(x) (line 3). Defaults to
	// Latin hypercube sampling over the unit cube.
	Sampler sample.Sampler
	// L is the number of new points (default 10000).
	L int
	// SD is the downstream subgroup-discovery algorithm (line 7).
	SD sd.Discoverer
	// ProbLabels selects the modified REDS of Section 6.1: pseudo-labels
	// are the raw metamodel probabilities f_am(x) in [0,1] instead of
	// thresholded {0,1} values (the "p" suffix of Section 8.2).
	ProbLabels bool
	// ValidateOnPseudo makes the downstream algorithm validate (stop
	// rule and final-box selection) on the pseudo-labeled dataset
	// instead of the original simulated examples. Off by default: the
	// paper's D_val = D convention uses real data, which keeps the
	// selected box comparable to conventional PRIM's. Exposed for the
	// ablation study (redsbench -exp ablation).
	ValidateOnPseudo bool
}

// checkTrain validates the shape of a training set before the pipeline
// touches it: without it, a dataset with rows but zero input columns (or
// ragged rows) sails through training and makes the sampler emit
// zero-width points, which fails far downstream with an opaque message.
func checkTrain(train *dataset.Dataset) error {
	if train.N() == 0 {
		return fmt.Errorf("core: empty training data")
	}
	m := train.M()
	if m == 0 {
		return fmt.Errorf("core: training data has %d rows but zero input columns", train.N())
	}
	for i, row := range train.X {
		if len(row) != m {
			return fmt.Errorf("core: malformed training data: row %d has %d columns, want %d", i, len(row), m)
		}
	}
	if len(train.Y) != train.N() {
		return fmt.Errorf("core: malformed training data: %d rows but %d labels", train.N(), len(train.Y))
	}
	return nil
}

// Discover implements sd.Discoverer: it runs Algorithm 4 on the train
// data. The downstream algorithm mines the pseudo-labeled dataset Dnew,
// but its validation set — used for the support-floor stop rule and the
// final-box selection of Algorithm 1 — is the provided val set of
// original simulated examples (the paper's D_val = D convention, with D
// the real data). Validating on real labels keeps REDS's selected box
// directly comparable to conventional PRIM's and prevents the peel from
// drilling into artifacts of the metamodel. When val is nil, train
// doubles as the validation set.
func (r *REDS) Discover(train, val *dataset.Dataset, rng *rand.Rand) (*sd.Result, error) {
	if r.Metamodel == nil || r.SD == nil {
		return nil, fmt.Errorf("core: REDS needs both a metamodel and an SD algorithm")
	}
	if err := checkTrain(train); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("core: REDS requires an RNG")
	}
	l := r.L
	if l == 0 {
		l = 10000
	}
	model, err := r.Metamodel.Train(train, rng)
	if err != nil {
		return nil, fmt.Errorf("core: training metamodel %s: %w", r.Metamodel.Name(), err)
	}
	pts, ords := draw(r.Sampler, l, train.M(), rng)
	dnew, err := labelPoints(context.Background(), model, pts, ords, r.ProbLabels, metamodel.BatchOptions{})
	if err != nil {
		return nil, err
	}
	dnew.Discrete = train.Discrete
	switch {
	case r.ValidateOnPseudo:
		val = dnew
	case val == nil:
		val = train
	}
	return r.SD.Discover(dnew, val, rng)
}

// DiscoverSemiSupervised runs REDS in the semi-supervised setting of
// Section 6.1/9.4: instead of sampling fresh points, the provided
// unlabeled pool (drawn from the same p(x) as the training data) is
// pseudo-labeled and mined.
func (r *REDS) DiscoverSemiSupervised(train *dataset.Dataset, pool [][]float64, rng *rand.Rand) (*sd.Result, error) {
	if r.Metamodel == nil || r.SD == nil {
		return nil, fmt.Errorf("core: REDS needs both a metamodel and an SD algorithm")
	}
	if err := checkTrain(train); err != nil {
		return nil, err
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("core: empty unlabeled pool")
	}
	for i, row := range pool {
		if len(row) != train.M() {
			return nil, fmt.Errorf("core: malformed pool: row %d has %d columns, want %d", i, len(row), train.M())
		}
	}
	model, err := r.Metamodel.Train(train, rng)
	if err != nil {
		return nil, fmt.Errorf("core: training metamodel %s: %w", r.Metamodel.Name(), err)
	}
	dnew, err := labelPoints(context.Background(), model, pool, nil, r.ProbLabels, metamodel.BatchOptions{})
	if err != nil {
		return nil, fmt.Errorf("core: pseudo-labeling pool: %w", err)
	}
	dnew.Discrete = train.Discrete
	return r.SD.Discover(dnew, train, rng)
}

// orderedSampler is a sampler whose design knows its columns' sorted
// orders, as sample.LatinHypercube does.
type orderedSampler interface {
	SampleOrdered(n, dim int, rng *rand.Rand) ([][]float64, [][]int)
}

// draw samples the n points of Algorithm 4, line 3, from smp (Latin
// hypercube when nil). ords are the design's candidate column orders
// when smp knows them, and nil otherwise.
func draw(smp sample.Sampler, n, dim int, rng *rand.Rand) (pts [][]float64, ords [][]int) {
	if smp == nil {
		smp = sample.LatinHypercube{}
	}
	if o, ok := smp.(orderedSampler); ok {
		return o.SampleOrdered(n, dim, rng)
	}
	return smp.Sample(n, dim, rng), nil
}

// labelPoints applies lines 4-6 of Algorithm 4: the points are
// sharded across the process's compute budget, ctx is checked per
// chunk, and models with a metamodel.BatchModel fast path are
// evaluated through it. With candidate orders the labeled set's sorted
// orders are built from them at once (dataset.NewPresorted); without,
// they are radix-sorted on first use.
func labelPoints(ctx context.Context, model metamodel.Model, pts [][]float64, ords [][]int, probLabels bool, opts metamodel.BatchOptions) (*dataset.Dataset, error) {
	var y []float64
	var err error
	if probLabels {
		y, err = metamodel.PredictProbBatchCtx(ctx, model, pts, opts)
	} else {
		y, err = metamodel.PredictLabelBatchCtx(ctx, model, pts, opts)
	}
	if err != nil {
		return nil, err
	}
	if ords != nil {
		return dataset.NewPresorted(pts, y, ords)
	}
	return &dataset.Dataset{X: pts, Y: y}, nil
}

// PseudoLabel runs the sample and label stages (Algorithm 4, lines
// 3-6) as a standalone step: draw l points of width dim from smp,
// seeded independently of any pipeline RNG, and label them with the
// trained model (probabilities when probLabels, hard labels
// otherwise). Factoring the stage out of the pipeline is what makes
// its result shareable — the engine calls it once per metamodel
// family and serves every variant (and cache-hitting repeat job) the
// same dataset. opts carries labeling progress; ctx cancels between
// chunks.
func PseudoLabel(ctx context.Context, model metamodel.Model, smp sample.Sampler, l, dim int, seed int64, probLabels bool, opts metamodel.BatchOptions) (*dataset.Dataset, error) {
	pts, ords := draw(smp, l, dim, rand.New(rand.NewSource(seed)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return labelPoints(ctx, model, pts, ords, probLabels, opts)
}
