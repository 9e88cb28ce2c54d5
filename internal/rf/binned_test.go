package rf

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/metamodel"
)

// TestBinnedQualityParity: binned forests must match exact forests on
// holdout accuracy within a small tolerance, across configurations
// (including mtry == M, which exercises the sibling-subtraction path)
// and bin budgets, over several seeded datasets.
func TestBinnedQualityParity(t *testing.T) {
	configs := []struct {
		base Trainer
		bins int
	}{
		{Trainer{NTrees: 50}, 0},                         // defaults, direct histograms
		{Trainer{NTrees: 50}, 16},                        // coarse bins
		{Trainer{NTrees: 30, MTry: 6}, 64},               // mtry == M: sibling subtraction
		{Trainer{NTrees: 30, MTry: 4, MaxDepth: 4}, 256}, // fine bins, capped depth
	}
	for ci, cfg := range configs {
		for _, seed := range []int64{1, 7, 42} {
			train := randomDataset(400, 6, seed)
			holdout := randomDataset(300, 6, seed+1000)

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

// TestBinnedDeterministic: same seed, same forest — regardless of
// scheduling across tree workers.
func TestBinnedDeterministic(t *testing.T) {
	d := randomDataset(300, 6, 3)
	tr := &BinnedTrainer{Trainer: Trainer{NTrees: 20}}
	a, err := tr.Train(d, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Train(d, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	probe := randomDataset(200, 6, 9)
	if !slices.Equal(metamodel.PredictProbBatch(a, probe.X), metamodel.PredictProbBatch(b, probe.X)) {
		t.Fatal("binned training is not deterministic")
	}
}

// TestBinnedTrainSubset: fitting through a row mask against the parent
// dataset's shared quantization must be deterministic and as accurate as
// fitting the materialized subset.
func TestBinnedTrainSubset(t *testing.T) {
	d := randomDataset(500, 6, 11)
	rng := rand.New(rand.NewSource(12))
	rows := rng.Perm(d.N())[:350]
	holdout := randomDataset(300, 6, 13)

	tr := &BinnedTrainer{Trainer: Trainer{NTrees: 40}}
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
	// The two quantize against different parents (full dataset vs
	// subset), so trees differ — but quality must not.
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
	big := randomDataset(10, 2, 1)
	if _, err := (&BinnedTrainer{}).TrainSubset(big, []int{3}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("want error for 1-row subset")
	}
}
