package rf

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
)

// randomDataset draws n points with m continuous inputs and a noisy
// two-feature interaction label.
func randomDataset(n, m int, seed int64) *dataset.Dataset {
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

// TestPresortedSplitFinderMatchesReference grows forests with the
// presorted prefix-sum fast path and the original per-node sorting
// implementation from identical seeds and asserts every tree is
// byte-identical: same topology, same split features and thresholds,
// same leaf values, same accumulated gains.
func TestPresortedSplitFinderMatchesReference(t *testing.T) {
	configs := []Trainer{
		{NTrees: 20},
		{NTrees: 10, MTry: 1, MinLeaf: 2},
		{NTrees: 10, MaxDepth: 3},
	}
	for ci, base := range configs {
		for _, seed := range []int64{1, 7, 42} {
			d := randomDataset(300, 6, seed)
			fm, err := base.Train(d, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("config %d seed %d: fast train: %v", ci, seed, err)
			}
			fast, ref := fm.(*Forest), trainReference(&base, d, rand.New(rand.NewSource(seed)))
			if len(fast.trees) != len(ref.trees) {
				t.Fatalf("config %d seed %d: %d vs %d trees", ci, seed, len(fast.trees), len(ref.trees))
			}
			for ti := range fast.trees {
				if !reflect.DeepEqual(fast.trees[ti].nodes, ref.trees[ti].nodes) {
					t.Fatalf("config %d seed %d: tree %d differs\nfast: %+v\nref:  %+v",
						ci, seed, ti, fast.trees[ti].nodes, ref.trees[ti].nodes)
				}
				if !reflect.DeepEqual(fast.trees[ti].gains, ref.trees[ti].gains) {
					t.Fatalf("config %d seed %d: tree %d gains differ", ci, seed, ti)
				}
			}
		}
	}
}
