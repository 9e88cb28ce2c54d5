package gbt

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
)

// diffDataset draws n points with m continuous inputs and a noisy
// two-feature interaction label.
func diffDataset(n, m int, seed int64) *dataset.Dataset {
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

// TestPresortedSplitFinderMatchesReference trains boosted ensembles with
// the presorted prefix-sum fast path and the original per-node sorting
// implementation and asserts the compiled tables are byte-identical.
// Stumps never partition a column's order; the fast path's rows take
// their margins from their leaves and the reference's from a per-row
// descent, and a wrong margin would show in every later tree.
func TestPresortedSplitFinderMatchesReference(t *testing.T) {
	configs := []Trainer{
		{Rounds: 25},
		{Rounds: 15, MaxDepth: 6, LearningRate: 0.1},
		{Rounds: 20, MaxDepth: 1},
		{Rounds: 15, MaxDepth: 2},
	}
	for ci, base := range configs {
		for _, seed := range []int64{1, 7, 42} {
			d := diffDataset(300, 6, seed)
			fm, err := base.Train(d, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("config %d seed %d: fast train: %v", ci, seed, err)
			}
			fast, ref := fm.(*Model), trainReference(&base, d)
			if fast.base != ref.base || fast.eta != ref.eta {
				t.Fatalf("config %d seed %d: base or eta differs", ci, seed)
			}
			if !reflect.DeepEqual(fast.table, ref.table) {
				t.Fatalf("config %d seed %d: tables differ\nfast: %+v\nref:  %+v",
					ci, seed, fast.table.Decode(), ref.table.Decode())
			}
		}
	}
}
