package rf

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/metamodel"
)

// Trainer configures random-forest training. The zero value uses the
// defaults of the R randomForest package that the paper relies on
// (ntree=100 here for speed, mtry=max(1, M/3) for regression-style
// probability trees, nodesize=5).
type Trainer struct {
	// NTrees is the number of trees (default 100).
	NTrees int
	// MTry is the number of features tried per split (default max(1, M/3)).
	MTry int
	// MinLeaf is the minimum number of examples per leaf (default 5).
	MinLeaf int
	// MaxDepth caps tree depth; 0 means unlimited.
	MaxDepth int
}

// Name implements metamodel.Trainer.
func (t *Trainer) Name() string { return "rf" }

// TuningKey is the trainer's identity in metamodel.Tuned's candidate
// seeds, so it is part of every tuned rf result. The text is frozen at
// the %T%+v rendering of an earlier Trainer that also had a Reference
// field: any other text re-seeds the cross-validation cells of every
// tuned rf job and can change which candidate wins.
func (t *Trainer) TuningKey() string {
	return fmt.Sprintf("*rf.Trainer&{NTrees:%d MTry:%d MinLeaf:%d MaxDepth:%d Reference:false}",
		t.NTrees, t.MTry, t.MinLeaf, t.MaxDepth)
}

// plan fills in the forest shape's defaults for m inputs and draws one
// seed per tree from rng. Every forest trainer starts here, so they
// agree on the shape and on each tree's random stream.
func (t *Trainer) plan(m int, rng *rand.Rand) (treeConfig, []int64) {
	nTrees := t.NTrees
	if nTrees == 0 {
		nTrees = 100
	}
	cfg := treeConfig{mtry: t.MTry, minLeaf: t.MinLeaf, maxDepth: t.MaxDepth}
	if cfg.mtry == 0 {
		cfg.mtry = max(1, m/3)
	}
	if cfg.minLeaf == 0 {
		cfg.minLeaf = 5
	}
	seeds := make([]int64, nTrees)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return cfg, seeds
}

// Forest is a trained random forest.
type Forest struct {
	trees []*tree

	// flat is the contiguous node-table compilation of the trees that
	// batch inference traverses (see flat.go and internal/flattree),
	// derived once on first use.
	flatOnce sync.Once
	flat     *flattree.Table
}

// Train implements metamodel.Trainer. Trees are grown in parallel on
// bootstrap resamples; the RNG seeds per-tree generators so the result is
// deterministic regardless of scheduling.
func (t *Trainer) Train(d *dataset.Dataset, rng *rand.Rand) (metamodel.Model, error) {
	if d.N() < 2 {
		return nil, fmt.Errorf("rf: need at least 2 examples, got %d", d.N())
	}
	cfg, seeds := t.plan(d.M(), rng)
	// The columnar view and per-feature sorted orders are computed once
	// on the dataset and shared by every tree; each worker's builder
	// specializes them to its tree's bootstrap by counting.
	cols := d.Columns()
	shared := d.SortedOrders()
	forest := &Forest{trees: make([]*tree, len(seeds))}
	workers := min(runtime.GOMAXPROCS(0), len(seeds))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			builder := newTreeBuilder(cols, d.Y, shared, cfg)
			idx := make([]int, d.N())
			for ti := range next {
				local := rand.New(rand.NewSource(seeds[ti]))
				for k := range idx {
					idx[k] = local.Intn(d.N())
				}
				forest.trees[ti] = builder.build(idx, local)
			}
		}()
	}
	for ti := range seeds {
		next <- ti
	}
	close(next)
	wg.Wait()
	return forest, nil
}

// PredictProb implements metamodel.Model: mean leaf value across trees,
// an estimate of P(y=1|x).
func (f *Forest) PredictProb(x []float64) float64 {
	s := 0.0
	for _, t := range f.trees {
		s += t.predict(x)
	}
	return s / float64(len(f.trees))
}

// PredictLabel implements metamodel.Model with the majority-vote boundary
// bnd = 0.5.
func (f *Forest) PredictLabel(x []float64) float64 {
	if f.PredictProb(x) > 0.5 {
		return 1
	}
	return 0
}

// NumTrees returns the number of trees in the forest.
func (f *Forest) NumTrees() int { return len(f.trees) }

// ApproxMemoryBytes implements metamodel.MemorySizer: nodes dominate a
// forest's footprint (a treeNode is two float64 and three ints — 40
// bytes plus padding/slice overhead, rounded to 48), plus the flat
// node table batch inference compiles. The table is lazy, but every
// forest the engine caches gets used for pseudo-labeling and
// materializes it, so it is charged up front rather than letting
// cached models silently outgrow the operator's byte budget.
func (f *Forest) ApproxMemoryBytes() int64 {
	const bytesPerNode = 48 + flattree.NodeBytes
	var n int64
	for _, t := range f.trees {
		n += int64(len(t.nodes))*bytesPerNode + int64(len(t.gains))*8
	}
	return n
}

// Importance returns the gain-based feature importance: per-feature
// variance-reduction gains summed across all trees, normalized to sum
// to 1 (all zeros for a stump-only forest). Useful for checking which
// inputs the metamodel deems relevant before trusting a scenario.
func (f *Forest) Importance() []float64 {
	if len(f.trees) == 0 {
		return nil
	}
	imp := make([]float64, len(f.trees[0].gains))
	total := 0.0
	for _, t := range f.trees {
		for j, g := range t.gains {
			imp[j] += g
			total += g
		}
	}
	if total > 0 {
		for j := range imp {
			imp[j] /= total
		}
	}
	return imp
}

// TunedTrainer returns the caret-style grid-search trainer for random
// forests: mtry over {sqrt(M), M/3, 2M/3} (deduplicated), matching the
// default caret tuning dimension.
func TunedTrainer(m int) metamodel.Trainer {
	candidates := []int{intSqrt(m), max1(m / 3), max1(2 * m / 3)}
	seen := map[int]bool{}
	var grid []metamodel.Trainer
	for _, c := range candidates {
		if c > m {
			c = m
		}
		if c < 1 || seen[c] {
			continue
		}
		seen[c] = true
		grid = append(grid, &Trainer{MTry: c})
	}
	return &metamodel.Tuned{Family: "rf", Grid: grid}
}

func intSqrt(m int) int {
	r := 1
	for r*r < m {
		r++
	}
	if r*r > m {
		r--
	}
	if r < 1 {
		r = 1
	}
	return r
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}
