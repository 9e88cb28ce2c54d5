package dataset

import (
	"fmt"
	"math/rand"
)

// Fold is a train/test split produced by KFold.
type Fold struct {
	Train *Dataset
	Test  *Dataset
	// TrainIdx and TestIdx are the row indices in the source dataset.
	TrainIdx []int
	TestIdx  []int
}

// KFold returns k stratified folds. Stratification keeps the share of
// positive labels (y >= 0.5) approximately equal across folds, which
// matters for the small-N, low-share datasets used in scenario discovery.
func KFold(d *Dataset, k int, rng *rand.Rand) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("dataset: k-fold needs k >= 2, got %d", k)
	}
	if d.N() < k {
		return nil, fmt.Errorf("dataset: %d examples cannot form %d folds", d.N(), k)
	}
	var pos, neg []int
	for i, y := range d.Y {
		if y >= 0.5 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })

	assign := make([]int, d.N())
	for i, idx := range pos {
		assign[idx] = i % k
	}
	for i, idx := range neg {
		assign[idx] = i % k
	}

	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		var trainIdx, testIdx []int
		for i := 0; i < d.N(); i++ {
			if assign[i] == f {
				testIdx = append(testIdx, i)
			} else {
				trainIdx = append(trainIdx, i)
			}
		}
		folds[f] = Fold{
			Train:    d.Subset(trainIdx),
			Test:     d.Subset(testIdx),
			TrainIdx: trainIdx,
			TestIdx:  testIdx,
		}
	}
	return folds, nil
}
