package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/gbt"
	"github.com/reds-go/reds/internal/metrics"
	"github.com/reds-go/reds/internal/prim"
	"github.com/reds-go/reds/internal/rf"
	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/sd"
)

func TestREDSValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := funcs.Generate(funcs.Hart3, 50, sample.LatinHypercube{}, rng)
	if _, err := (&REDS{}).Discover(d, d, rng); err == nil {
		t.Error("missing components must error")
	}
	r := &REDS{Metamodel: &rf.Trainer{NTrees: 5}, SD: &prim.Peeler{}}
	if _, err := r.Discover(dataset.MustNew(nil, nil), nil, rng); err == nil {
		t.Error("empty training data must error")
	}
	if _, err := r.Discover(d, d, nil); err == nil {
		t.Error("nil RNG must error")
	}
}

func TestREDSEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := funcs.F2 // noisy band over 2 of 5 inputs
	train := funcs.Generate(f, 200, sample.LatinHypercube{}, rng)
	r := &REDS{
		Metamodel: &rf.Trainer{NTrees: 50},
		L:         3000,
		SD:        &prim.Peeler{},
	}
	res, err := r.Discover(train, train, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) < 2 {
		t.Fatal("trajectory too short")
	}
	// Quality on independent test data should clearly beat the base rate.
	test := funcs.Generate(f, 4000, sample.Uniform{}, rng)
	p, rec := metrics.PrecisionRecall(res.Final(), test)
	if p < 2*test.PositiveShare() {
		t.Errorf("REDS precision %.3f vs base rate %.3f", p, test.PositiveShare())
	}
	if rec <= 0 {
		t.Error("zero recall")
	}
}

func TestREDSImprovesOverPlainPRIMOnSmallData(t *testing.T) {
	// The paper's central claim at miniature scale: with few simulations
	// and a high-dimensional function, REDS should (usually) find a
	// better scenario than plain PRIM. Averaged over a few repetitions
	// to keep flakiness negligible.
	f := funcs.Morris
	reps := 3
	var aucP, aucR float64
	for rep := 0; rep < reps; rep++ {
		rng := rand.New(rand.NewSource(int64(100 + rep)))
		train := funcs.Generate(f, 200, sample.LatinHypercube{}, rng)
		test := funcs.Generate(f, 4000, sample.Uniform{}, rng)

		plain, err := (&prim.Peeler{}).Discover(train, train, rng)
		if err != nil {
			t.Fatal(err)
		}
		reds := &REDS{
			Metamodel: &gbt.Trainer{Rounds: 60, MaxDepth: 4},
			L:         5000,
			SD:        &prim.Peeler{},
		}
		redsRes, err := reds.Discover(train, train, rng)
		if err != nil {
			t.Fatal(err)
		}
		aucP += metrics.ResultPRAUC(plain, test)
		aucR += metrics.ResultPRAUC(redsRes, test)
	}
	aucP /= float64(reps)
	aucR /= float64(reps)
	t.Logf("PR AUC: plain PRIM %.4f, REDS %.4f", aucP, aucR)
	if aucR < aucP {
		t.Errorf("REDS (%.4f) should beat plain PRIM (%.4f) on morris at N=200", aucR, aucP)
	}
}

func TestREDSProbLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := funcs.F1
	train := funcs.Generate(f, 150, sample.LatinHypercube{}, rng)
	r := &REDS{
		Metamodel:  &rf.Trainer{NTrees: 40},
		L:          2000,
		SD:         &prim.Peeler{},
		ProbLabels: true,
	}
	res, err := r.Discover(train, train, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final() == nil {
		t.Fatal("no final box")
	}
	// With probability labels the inner dataset's labels are fractional;
	// the pipeline must still produce a sane scenario.
	test := funcs.Generate(f, 3000, sample.Uniform{}, rng)
	p, _ := metrics.PrecisionRecall(res.Final(), test)
	if p < test.PositiveShare() {
		t.Errorf("p-variant precision %.3f below base rate", p)
	}
}

func TestREDSSemiSupervised(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := funcs.F2
	smp := sample.LogitNormal{Sigma: 1}
	// Labeled data and unlabeled pool from the same non-uniform p(x).
	train := funcs.Generate(f, 150, smp, rng)
	pool := smp.Sample(3000, f.Dim(), rng)
	r := &REDS{Metamodel: &rf.Trainer{NTrees: 40}, SD: &prim.Peeler{}}
	res, err := r.DiscoverSemiSupervised(train, pool, rng)
	if err != nil {
		t.Fatal(err)
	}
	test := funcs.Generate(f, 3000, smp, rng)
	p, _ := metrics.PrecisionRecall(res.Final(), test)
	if p < test.PositiveShare() {
		t.Errorf("semi-supervised precision %.3f below base rate %.3f", p, test.PositiveShare())
	}
	if _, err := r.DiscoverSemiSupervised(train, nil, rng); err == nil {
		t.Error("empty pool must error")
	}
}

func TestREDSIsAnSDDiscoverer(t *testing.T) {
	var _ sd.Discoverer = &REDS{}
}

func TestREDSDefaultL(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := funcs.Generate(funcs.Hart3, 100, sample.LatinHypercube{}, rng)
	// Custom SD that records the dataset size it receives.
	rec := &recordingSD{}
	r := &REDS{Metamodel: &rf.Trainer{NTrees: 5}, SD: rec, L: 1234}
	if _, err := r.Discover(train, train, rng); err != nil {
		t.Fatal(err)
	}
	if rec.n != 1234 {
		t.Errorf("SD received %d points, want L=1234", rec.n)
	}
}

type recordingSD struct{ n int }

func (r *recordingSD) Discover(train, val *dataset.Dataset, rng *rand.Rand) (*sd.Result, error) {
	r.n = train.N()
	return (&prim.Peeler{}).Discover(train, val, rng)
}

// TestSemiSupervisedRejectsRaggedPool asserts pool validation errors
// surface instead of panicking deep in the labeling stage (the pool is
// labeled through the batch kernels, which index rows by the training
// width).
func TestSemiSupervisedRejectsRaggedPool(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	train := funcs.Generate(funcs.Hart3, 60, sample.LatinHypercube{}, rng)
	r := &REDS{Metamodel: &rf.Trainer{NTrees: 5}, SD: &prim.Peeler{}}
	pool := sample.LatinHypercube{}.Sample(50, train.M(), rng)
	pool[20] = pool[20][:1]
	if _, err := r.DiscoverSemiSupervised(train, pool, rng); err == nil {
		t.Fatal("ragged pool must error, not panic or mislabel")
	}
}

// TestPseudoLabelDeterministicAndShared asserts the standalone stage
// is a pure function of (model, sampler, l, dim, seed, probLabels) —
// the property that licenses caching it — and that prob vs hard labels
// differ only in Y.
func TestPseudoLabelDeterministicAndShared(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	train := funcs.Generate(funcs.Hart3, 80, sample.LatinHypercube{}, rng)
	model, err := (&rf.Trainer{NTrees: 20}).Train(train, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := PseudoLabel(context.Background(), model, sample.LatinHypercube{}, 500, train.M(), 99, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PseudoLabel(context.Background(), model, sample.LatinHypercube{}, 500, train.M(), 99, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("same seed produced different pseudo-labeled datasets")
	}
	p, err := PseudoLabel(context.Background(), model, sample.LatinHypercube{}, 500, train.M(), 99, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Y {
		if p.X[i][0] != a.X[i][0] {
			t.Fatal("prob variant sampled different points")
		}
		if p.Y[i] != 0 && p.Y[i] != 1 {
			return // saw a genuine probability: good
		}
	}
	t.Log("all probability labels were 0/1 (acceptable for a crisp model)")
}
