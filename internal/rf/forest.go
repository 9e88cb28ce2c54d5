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
// for the layout and the branch-free lockstep descent).
type Forest struct {
	table *flattree.Table
}

// MarshalBinary implements encoding.BinaryMarshaler: the table in
// flattree's layout, which is all a forest holds.
func (f *Forest) MarshalBinary() ([]byte, error) {
	return f.table.AppendBinary(nil), nil
}

// UnmarshalForest decodes a forest MarshalBinary wrote for points of the
// given width, bit for bit; flattree.ReadTable validates it.
func UnmarshalForest(data []byte, width int) (*Forest, error) {
	table, err := flattree.ReadTable(data, width)
	if err != nil {
		return nil, err
	}
	return &Forest{table: table}, nil
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
	// on the dataset and shared by every tree; each worker's node lists
	// specialize them to its tree's bootstrap by counting.
	cols := d.Columns()
	shared := d.SortedOrders()
	trees := make([][]flattree.Node, len(seeds))
	builders := make([]*treeBuilder, len(seeds))
	idxs := make([][]int, len(seeds))
	par.For(len(seeds), func(w, ti int) {
		if builders[w] == nil {
			builders[w] = &treeBuilder{cols: cols, y: d.Y, cfg: cfg, nodes: dataset.NewNodes(d.N(), shared)}
			idxs[w] = make([]int, d.N())
		}
		idx := idxs[w]
		local := rand.New(rand.NewSource(seeds[ti]))
		for k := range idx {
			idx[k] = local.Intn(d.N())
		}
		trees[ti] = builders[w].build(idx, local)
	})
	return &Forest{table: flattree.Compile(trees)}, nil
}

// PredictProbBatchInto implements metamodel.Model: mean leaf value
// across trees, an estimate of P(y=1|x), for every point.
func (f *Forest) PredictProbBatchInto(dst []float64, pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	f.table.SumInto(dst, pts, len(pts[0]), 0, 1)
	inv := float64(len(f.table.Roots))
	for i := range dst {
		dst[i] /= inv
	}
}

// PredictLabelBatchInto implements metamodel.Model with the
// majority-vote boundary bnd = 0.5: the table's hard-label kernel stops
// descending a point's trees once its vote is settled.
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
func (f *Forest) NumTrees() int { return len(f.table.Roots) }

// ApproxMemoryBytes implements metamodel.Model: the compiled table.
func (f *Forest) ApproxMemoryBytes() int64 { return f.table.MemoryBytes() }

// TunedTrainer returns the caret-style grid-search trainer for random
// forests over tuningGrid's mtry candidates.
func TunedTrainer(m int) metamodel.Trainer {
	tuned := &metamodel.Tuned{Family: "rf"}
	for _, c := range tuningGrid(m) {
		tuned.Grid = append(tuned.Grid, &c)
	}
	return tuned
}

// tuningGrid is the default caret tuning dimension for m inputs: mtry
// over {sqrt(M), M/3, 2M/3}, deduplicated. Every tuned rf trainer,
// exact or binned, tunes over it.
func tuningGrid(m int) []Trainer {
	var grid []Trainer
	seen := map[int]bool{}
	for _, c := range []int{intSqrt(m), max(1, m/3), max(1, 2*m/3)} {
		c = min(c, m)
		if c < 1 || seen[c] {
			continue
		}
		seen[c] = true
		grid = append(grid, Trainer{MTry: c})
	}
	return grid
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
