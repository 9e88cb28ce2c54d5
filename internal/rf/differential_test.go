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
// implementation from identical seeds and asserts the compiled tables
// are byte-identical (same topology, same split features and
// thresholds, same leaf values). On 2 and 3 rows a bootstrap often draws one row n times, which
// runs the expansion of its sorted orders to the end of their buffers.
func TestPresortedSplitFinderMatchesReference(t *testing.T) {
	configs := []struct {
		Trainer
		ns []int
	}{
		{Trainer{NTrees: 20}, []int{300}},
		{Trainer{NTrees: 10, MTry: 1, MinLeaf: 2}, []int{300, 2, 3}},
		{Trainer{NTrees: 10, MaxDepth: 3}, []int{300}},
	}
	for ci, cfg := range configs {
		base := cfg.Trainer
		for _, n := range cfg.ns {
			for _, seed := range []int64{1, 7, 42} {
				d := randomDataset(n, 6, seed)
				fm, err := base.Train(d, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatalf("config %d n %d seed %d: fast train: %v", ci, n, seed, err)
				}
				fast, ref := fm.(*Forest), trainReference(&base, d, rand.New(rand.NewSource(seed)))
				if !reflect.DeepEqual(fast.table, ref.table) {
					t.Fatalf("config %d n %d seed %d: tables differ\nfast: %+v\nref:  %+v",
						ci, n, seed, fast.table.Decode(), ref.table.Decode())
				}
			}
		}
	}
}
