package rf

import (
	"fmt"
	"math/rand"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/par"
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

// Forest is a trained random forest: its trees compiled into one
// flattree table, the only form prediction reads (see internal/flattree
// for the layout and the branch-free lockstep descent), and each tree's
// per-feature gains.
type Forest struct {
	table *flattree.Table
	gains [][]float64
}

// newForest compiles the grown trees into a forest.
func newForest(trees []*tree) *Forest {
	nodes := make([][]flattree.Node, len(trees))
	f := &Forest{gains: make([][]float64, len(trees))}
	for i, t := range trees {
		nodes[i], f.gains[i] = t.nodes, t.gains
	}
	f.table = flattree.Compile(nodes)
	return f
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
	trees := make([]*tree, len(seeds))
	builders := make([]*treeBuilder, len(seeds))
	idxs := make([][]int, len(seeds))
	par.For(len(seeds), func(w, ti int) {
		if builders[w] == nil {
			builders[w], idxs[w] = newTreeBuilder(cols, d.Y, shared, cfg), make([]int, d.N())
		}
		idx := idxs[w]
		local := rand.New(rand.NewSource(seeds[ti]))
		for k := range idx {
			idx[k] = local.Intn(d.N())
		}
		trees[ti] = builders[w].build(idx, local)
	})
	return newForest(trees), nil
}

// PredictProb implements metamodel.Model: mean leaf value across trees,
// an estimate of P(y=1|x), by the batch kernel on one point.
func (f *Forest) PredictProb(x []float64) float64 {
	var dst [1]float64
	f.PredictProbBatchInto(dst[:], [][]float64{x})
	return dst[0]
}

// PredictLabel implements metamodel.Model with the majority-vote boundary
// bnd = 0.5.
func (f *Forest) PredictLabel(x []float64) float64 {
	if f.PredictProb(x) > 0.5 {
		return 1
	}
	return 0
}

// PredictProbBatchInto implements metamodel.BatchModel: mean leaf value
// across trees for every point.
func (f *Forest) PredictProbBatchInto(dst []float64, pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	f.table.SumInto(dst, pts, len(pts[0]), 0, 1)
	inv := float64(len(f.gains))
	for i := range dst {
		dst[i] /= inv
	}
}

// PredictLabelBatchInto implements metamodel.BatchModel with the same
// majority-vote boundary as PredictLabel: the table's hard-label kernel
// stops descending a point's trees once its vote is settled.
func (f *Forest) PredictLabelBatchInto(dst []float64, pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	f.table.LabelInto(dst, pts, len(pts[0]), 0, 1, false)
}

// DistillSource exposes the forest to rule-set distillation
// (internal/ruleset): the decoded node table plus the accumulation
// PredictProbBatchInto applies (mean vote — init 0, scale 1,
// thresholded at 0.5).
func (f *Forest) DistillSource() flattree.Ensemble {
	return flattree.Ensemble{Trees: f.table.Decode(), Init: 0, Scale: 1, Margin: false}
}

// NumTrees returns the number of trees in the forest.
func (f *Forest) NumTrees() int { return len(f.gains) }

// ApproxMemoryBytes implements metamodel.MemorySizer: the compiled
// table plus the per-tree gains.
func (f *Forest) ApproxMemoryBytes() int64 {
	n := f.table.MemoryBytes()
	for _, g := range f.gains {
		n += int64(len(g)) * 8
	}
	return n
}

// Importance returns the gain-based feature importance: per-feature
// variance-reduction gains summed across all trees, normalized to sum
// to 1 (all zeros for a stump-only forest). Useful for checking which
// inputs the metamodel deems relevant before trusting a scenario.
func (f *Forest) Importance() []float64 {
	if len(f.gains) == 0 {
		return nil
	}
	imp := make([]float64, len(f.gains[0]))
	total := 0.0
	for _, gains := range f.gains {
		for j, g := range gains {
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
