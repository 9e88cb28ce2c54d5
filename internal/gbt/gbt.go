// Package gbt implements gradient-boosted regression trees with
// second-order (Newton) updates and logistic loss — the "x" (XGBoost)
// metamodel of the paper. Trees are grown by exact greedy search on the
// XGBoost gain criterion with L2 leaf regularization and shrinkage.
package gbt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/metamodel"
)

// Trainer configures boosting. Zero-value fields take XGBoost-flavored
// defaults: 100 rounds, learning rate 0.3, depth 4, lambda 1.
type Trainer struct {
	// Rounds is the number of boosting rounds (default 100).
	Rounds int
	// LearningRate is the shrinkage eta (default 0.3).
	LearningRate float64
	// MaxDepth caps each tree (default 4).
	MaxDepth int
	// Lambda is the L2 regularization of leaf weights (default 1).
	Lambda float64
	// MinChildWeight is the minimum hessian sum per leaf (default 1).
	MinChildWeight float64
	// SubSample is the row-sampling ratio per round (default 1 = off).
	SubSample float64
	// ColSample is the column-sampling ratio per round (default 1 = off).
	ColSample float64
}

// Name implements metamodel.Trainer.
func (t *Trainer) Name() string { return "xgb" }

func (t *Trainer) withDefaults() Trainer {
	out := *t
	if out.Rounds == 0 {
		out.Rounds = 100
	}
	if out.LearningRate == 0 {
		out.LearningRate = 0.3
	}
	if out.MaxDepth == 0 {
		out.MaxDepth = 4
	}
	if out.Lambda == 0 {
		out.Lambda = 1
	}
	if out.MinChildWeight == 0 {
		out.MinChildWeight = 1
	}
	if out.SubSample == 0 {
		out.SubSample = 1
	}
	if out.ColSample == 0 {
		out.ColSample = 1
	}
	return out
}

// node of a boosting tree in a flat slice; leaves have feature == -1 and
// carry the leaf weight.
type node struct {
	feature     int
	split       float64
	weight      float64
	left, right int
}

type btree struct{ nodes []node }

func (t *btree) predict(x []float64) float64 {
	i := 0
	for {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return nd.weight
		}
		if x[nd.feature] <= nd.split {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}

// Model is a trained boosted ensemble.
type Model struct {
	trees []btree
	eta   float64
	base  float64 // initial log-odds
	gains []float64

	// flat is the contiguous node-table compilation of the trees that
	// batch inference traverses (see flat.go and internal/flattree),
	// derived once on first use.
	flatOnce sync.Once
	flat     *flattree.Table
}

// Margin returns the raw additive score (log-odds) at x.
func (m *Model) Margin(x []float64) float64 {
	s := m.base
	for i := range m.trees {
		s += m.eta * m.trees[i].predict(x)
	}
	return s
}

// PredictProb implements metamodel.Model via the logistic link.
func (m *Model) PredictProb(x []float64) float64 {
	return sigmoid(m.Margin(x))
}

// PredictLabel implements metamodel.Model with boundary margin > 0
// (probability 0.5).
func (m *Model) PredictLabel(x []float64) float64 {
	if m.Margin(x) > 0 {
		return 1
	}
	return 0
}

// NumTrees returns the number of boosted trees.
func (m *Model) NumTrees() int { return len(m.trees) }

// ApproxMemoryBytes implements metamodel.MemorySizer: nodes dominate
// the ensemble's footprint (a node is three float64 and three ints — 48
// bytes plus padding/slice overhead, rounded to 56), plus the flat
// node table batch inference compiles — charged up front, like rf's,
// because every engine-cached model materializes it for labeling.
func (m *Model) ApproxMemoryBytes() int64 {
	const bytesPerNode = 56 + flattree.NodeBytes
	var n int64
	for i := range m.trees {
		n += int64(len(m.trees[i].nodes)) * bytesPerNode
	}
	return n + int64(len(m.gains))*8
}

// Importance returns the gain-based feature importance (XGBoost's "total
// gain"), normalized to sum to 1.
func (m *Model) Importance() []float64 {
	imp := append([]float64(nil), m.gains...)
	total := 0.0
	for _, g := range imp {
		total += g
	}
	if total > 0 {
		for j := range imp {
			imp[j] /= total
		}
	}
	return imp
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Train implements metamodel.Trainer.
func (t *Trainer) Train(d *dataset.Dataset, rng *rand.Rand) (metamodel.Model, error) {
	if d.N() < 2 {
		return nil, fmt.Errorf("gbt: need at least 2 examples, got %d", d.N())
	}
	cfg := t.withDefaults()
	n := d.N()

	// Base score: log-odds of the global mean, clipped away from the
	// degenerate extremes.
	mean := d.PositiveShare()
	if mean < 1e-6 {
		mean = 1e-6
	}
	if mean > 1-1e-6 {
		mean = 1 - 1e-6
	}
	model := &Model{
		eta:   cfg.LearningRate,
		base:  math.Log(mean / (1 - mean)),
		gains: make([]float64, d.M()),
	}

	margin := make([]float64, n)
	for i := range margin {
		margin[i] = model.base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)

	// The columnar view and per-feature sorted orders are computed once
	// on the dataset and shared by every round; the builder specializes
	// them to each round's row sample and reuses its scratch buffers.
	builder := newRoundBuilder(d.Columns(), d.SortedOrders(), grad, hess, cfg)

	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			p := sigmoid(margin[i])
			grad[i] = p - d.Y[i]
			hess[i] = p * (1 - p)
		}
		rows := sampleRows(n, cfg.SubSample, rng)
		cols := sampleCols(d.M(), cfg.ColSample, rng)
		tr := btree{}
		builder.build(&tr, rows, cols, model.gains)
		model.trees = append(model.trees, tr)
		for i := 0; i < n; i++ {
			margin[i] += cfg.LearningRate * tr.predict(d.X[i])
		}
	}
	return model, nil
}

func sampleRows(n int, ratio float64, rng *rand.Rand) []int {
	if ratio >= 1 {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	k := int(float64(n) * ratio)
	if k < 1 {
		k = 1
	}
	return rng.Perm(n)[:k]
}

func sampleCols(m int, ratio float64, rng *rand.Rand) []int {
	if ratio >= 1 {
		cols := make([]int, m)
		for j := range cols {
			cols[j] = j
		}
		return cols
	}
	k := int(float64(m) * ratio)
	if k < 1 {
		k = 1
	}
	cols := rng.Perm(m)[:k]
	sort.Ints(cols)
	return cols
}

func leaf(t *btree, w float64) int {
	t.nodes = append(t.nodes, node{feature: -1, weight: w})
	return len(t.nodes) - 1
}

// roundBuilder grows one boosting tree per round from presorted column
// orders: the dataset-level sorted orders are filtered to the round's
// row sample once, kept sorted through every split by stable
// partitioning, and swept with running gradient/hessian prefix sums —
// O(n) per node-column instead of the reference's O(n log n) sort.
// Scratch buffers persist across rounds, so steady-state growth
// allocates only the tree nodes.
type roundBuilder struct {
	colsView [][]float64 // columnar view: colsView[j][row]
	shared   [][]int     // dataset-level ascending row order per column
	grad     []float64
	hess     []float64
	cfg      Trainer

	inRound []bool  // dataset row is in this round's sample
	orders  [][]int // per candidate column: sampled rows in ascending order, segmented by node
	rows    []int   // node rows in sample order, segmented like orders
	cols    []int   // this round's candidate column ids
	goLeft  []bool  // per dataset row: goes left at the split being applied
	scratch []int   // right-half spill buffer for stable partitioning
	gains   []float64
	t       *btree
}

func newRoundBuilder(colsView [][]float64, shared [][]int, grad, hess []float64, cfg Trainer) *roundBuilder {
	n := len(grad)
	m := len(colsView)
	orders := make([][]int, m)
	for j := range orders {
		orders[j] = make([]int, 0, n)
	}
	return &roundBuilder{
		colsView: colsView,
		shared:   shared,
		grad:     grad,
		hess:     hess,
		cfg:      cfg,
		inRound:  make([]bool, n),
		orders:   orders,
		rows:     make([]int, 0, n),
		goLeft:   make([]bool, n),
		scratch:  make([]int, n),
	}
}

// build grows one tree over the sampled rows (sample order, no
// duplicates) and candidate cols, adding split gains into gains.
func (b *roundBuilder) build(t *btree, rows, cols []int, gains []float64) {
	for i := range b.inRound {
		b.inRound[i] = false
	}
	for _, i := range rows {
		b.inRound[i] = true
	}
	// Specialize the shared orders to the sample: an O(N) filter per
	// candidate column.
	for ci, c := range cols {
		ord := b.orders[ci][:0]
		for _, r := range b.shared[c] {
			if b.inRound[r] {
				ord = append(ord, r)
			}
		}
		b.orders[ci] = ord
	}
	b.rows = append(b.rows[:0], rows...)
	b.cols = cols
	b.t = t
	b.gains = gains
	b.grow(0, len(rows), 0)
}

// grow appends the subtree over the segment [lo, hi) of the node lists
// and returns its node index.
func (b *roundBuilder) grow(lo, hi, depth int) int {
	cfg := b.cfg
	var gSum, hSum float64
	for _, i := range b.rows[lo:hi] {
		gSum += b.grad[i]
		hSum += b.hess[i]
	}
	leafWeight := -gSum / (hSum + cfg.Lambda)
	if depth >= cfg.MaxDepth || hSum < 2*cfg.MinChildWeight || hi-lo < 2 {
		return leaf(b.t, leafWeight)
	}

	feat, split, gain := b.bestSplit(lo, hi, gSum, hSum)
	if gain <= 1e-12 {
		return leaf(b.t, leafWeight)
	}
	b.gains[feat] += gain

	nl := b.partition(lo, hi, feat, split)
	if nl == 0 || nl == hi-lo {
		return leaf(b.t, leafWeight)
	}
	self := len(b.t.nodes)
	b.t.nodes = append(b.t.nodes, node{feature: feat, split: split})
	l := b.grow(lo, lo+nl, depth+1)
	r := b.grow(lo+nl, hi, depth+1)
	b.t.nodes[self].left = l
	b.t.nodes[self].right = r
	return self
}

// bestSplit maximizes the XGBoost structure gain
// GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ) over all cut points of the
// candidate columns; each column is a single prefix-sum sweep over its
// presorted node segment.
func (b *roundBuilder) bestSplit(lo, hi int, gSum, hSum float64) (feat int, split, bestGain float64) {
	cfg := b.cfg
	n := hi - lo
	parent := gSum * gSum / (hSum + cfg.Lambda)
	for ci, f := range b.cols {
		seg := b.orders[ci][lo:hi]
		col := b.colsView[f]
		var gl, hl float64
		for k := 0; k < n-1; k++ {
			i := seg[k]
			gl += b.grad[i]
			hl += b.hess[i]
			if col[seg[k+1]] == col[i] {
				continue
			}
			hr := hSum - hl
			if hl < cfg.MinChildWeight || hr < cfg.MinChildWeight {
				continue
			}
			gr := gSum - gl
			gain := gl*gl/(hl+cfg.Lambda) + gr*gr/(hr+cfg.Lambda) - parent
			if gain > bestGain {
				bestGain = gain
				feat = f
				split = (col[i] + col[seg[k+1]]) / 2
			}
		}
	}
	return feat, split, bestGain
}

// partition stably splits the node segment [lo, hi) of the sample-order
// row list and of every candidate column's sorted list on
// x[feat] <= split, so both children remain sorted. Returns the left
// child size.
func (b *roundBuilder) partition(lo, hi, feat int, split float64) int {
	col := b.colsView[feat]
	for _, r := range b.rows[lo:hi] {
		b.goLeft[r] = col[r] <= split
	}
	nl := dataset.StablePartition(b.rows[lo:hi], b.goLeft, b.scratch)
	for ci := range b.cols {
		dataset.StablePartition(b.orders[ci][lo:hi], b.goLeft, b.scratch)
	}
	return nl
}

// TunedTrainer returns the caret-style grid for boosting: depth x rounds
// with a moderate learning rate, the dominant dimensions of the default
// caret xgbTree grid (which caps max_depth at 3 — deeper trees overfit
// label noise and fragment the pseudo-labeled region REDS peels).
func TunedTrainer() metamodel.Trainer {
	return &metamodel.Tuned{Family: "xgb", Grid: []metamodel.Trainer{
		&Trainer{Rounds: 50, MaxDepth: 1, LearningRate: 0.3},
		&Trainer{Rounds: 50, MaxDepth: 3, LearningRate: 0.3},
		&Trainer{Rounds: 150, MaxDepth: 2, LearningRate: 0.1},
		&Trainer{Rounds: 150, MaxDepth: 3, LearningRate: 0.1},
	}}
}
