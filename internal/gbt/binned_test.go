package gbt

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/metamodel"
)

func noisyData(n, m int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		if row[0] < 0.5 && row[m/2] > 0.3 {
			y[i] = 1
		}
		if rng.Float64() < 0.05 {
			y[i] = 1 - y[i]
		}
	}
	return dataset.MustNew(x, y)
}

// TestBinnedQualityParity: binned boosting must match exact boosting on
// holdout accuracy within a small tolerance across configurations and
// bin budgets.
func TestBinnedQualityParity(t *testing.T) {
	configs := []struct {
		base Trainer
		bins int
	}{
		{Trainer{Rounds: 50}, 0},
		{Trainer{Rounds: 50, MaxDepth: 2, LearningRate: 0.1}, 16},
		{Trainer{Rounds: 30}, 64},
		{Trainer{Rounds: 30, MaxDepth: 6}, 256},
	}
	for ci, cfg := range configs {
		for _, seed := range []int64{1, 7, 42} {
			train := noisyData(400, 6, seed)
			holdout := noisyData(300, 6, seed+1000)

			em, err := cfg.base.Train(train, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("config %d seed %d: exact train: %v", ci, seed, err)
			}
			bt := &BinnedTrainer{Trainer: cfg.base, Bins: cfg.bins}
			bm, err := bt.Train(train, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("config %d seed %d: binned train: %v", ci, seed, err)
			}
			ea := metamodel.Accuracy(em, holdout)
			ba := metamodel.Accuracy(bm, holdout)
			if diff := ea - ba; diff > 0.06 || diff < -0.06 {
				t.Errorf("config %d seed %d: exact accuracy %.4f vs binned %.4f (diff %.4f)",
					ci, seed, ea, ba, diff)
			}
		}
	}
}

// TestBinnedDeterministic: same seed, same ensemble.
func TestBinnedDeterministic(t *testing.T) {
	d := noisyData(300, 6, 3)
	tr := &BinnedTrainer{Trainer: Trainer{Rounds: 30}}
	a, err := tr.Train(d, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Train(d, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	probe := noisyData(200, 6, 9)
	if !slices.Equal(metamodel.PredictProbBatch(a, probe.X), metamodel.PredictProbBatch(b, probe.X)) {
		t.Fatal("binned training is not deterministic")
	}
}

// TestBinnedTrainSubset: the shared-fold row-mask path must be
// deterministic and as accurate as training the materialized subset.
func TestBinnedTrainSubset(t *testing.T) {
	d := noisyData(500, 6, 11)
	rng := rand.New(rand.NewSource(12))
	rows := rng.Perm(d.N())[:350]
	holdout := noisyData(300, 6, 13)

	tr := &BinnedTrainer{Trainer: Trainer{Rounds: 40}}
	var _ metamodel.SubsetTrainer = tr
	sm, err := tr.TrainSubset(d, rows, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	mm, err := tr.Train(d.Subset(rows), rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	sa := metamodel.Accuracy(sm, holdout)
	ma := metamodel.Accuracy(mm, holdout)
	if diff := sa - ma; diff > 0.06 || diff < -0.06 {
		t.Errorf("subset accuracy %.4f vs materialized %.4f", sa, ma)
	}

	sm2, err := tr.TrainSubset(d, rows, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(metamodel.PredictProbBatch(sm, holdout.X), metamodel.PredictProbBatch(sm2, holdout.X)) {
		t.Fatal("TrainSubset is not deterministic")
	}
}

// TestBinnedTooSmall mirrors the exact trainer's minimum-size contract.
func TestBinnedTooSmall(t *testing.T) {
	d := dataset.MustNew([][]float64{{1}}, []float64{0})
	if _, err := (&BinnedTrainer{}).Train(d, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("want error for 1-row dataset")
	}
}
