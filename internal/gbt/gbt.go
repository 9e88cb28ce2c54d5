// Package gbt implements gradient-boosted regression trees with
// second-order (Newton) updates and logistic loss — the "x" (XGBoost)
// metamodel of the paper. Trees are grown by exact greedy search on the
// XGBoost gain criterion with L2 leaf regularization and shrinkage.
package gbt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/metamodel"
)

// Trainer configures boosting. Zero-value fields take XGBoost-flavored
// defaults: 100 rounds, learning rate 0.3, depth 4, lambda 1, minimum
// child weight 1.
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
	return out
}

// Model is a trained boosted ensemble: its trees compiled into one
// flattree table, the only form prediction reads (see internal/flattree
// for the layout and the branch-free lockstep descent), with the base
// score and the shrinkage.
type Model struct {
	table *flattree.Table
	eta   float64
	base  float64 // initial log-odds
}

// MarshalBinary implements encoding.BinaryMarshaler: the base score's
// and the shrinkage's bits as little-endian uint64s, then the table in
// flattree's layout.
func (m *Model) MarshalBinary() ([]byte, error) {
	b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(m.base))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.eta))
	return m.table.AppendBinary(b), nil
}

// UnmarshalModel decodes a model MarshalBinary wrote for points of the
// given width, bit for bit; flattree.ReadTable validates the table.
func UnmarshalModel(data []byte, width int) (*Model, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("gbt: %d-byte model", len(data))
	}
	table, err := flattree.ReadTable(data[16:], width)
	if err != nil {
		return nil, err
	}
	return &Model{
		table: table,
		base:  math.Float64frombits(binary.LittleEndian.Uint64(data)),
		eta:   math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
	}, nil
}

// PredictProbBatchInto implements metamodel.Model via the logistic
// link on the margins: base plus eta times every tree's leaf weight,
// summed in tree order.
func (m *Model) PredictProbBatchInto(dst []float64, pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	m.table.SumInto(dst, pts, len(pts[0]), m.base, m.eta)
	for i, z := range dst {
		dst[i] = sigmoid(z)
	}
}

// PredictLabelBatchInto implements metamodel.Model with boundary
// margin > 0 (probability 0.5), thresholding the raw margin, not the
// squashed probability: the table's hard-label kernel stops descending
// a point's trees once the margin's sign is settled.
func (m *Model) PredictLabelBatchInto(dst []float64, pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	m.table.LabelInto(dst, pts, len(pts[0]), m.base, m.eta, true)
}

// DistillSource exposes the boosted ensemble to rule-set distillation
// (internal/ruleset): the decoded node table plus the accumulation the
// batch kernels apply (margin — init base, scale eta, thresholded at
// 0).
func (m *Model) DistillSource() flattree.Ensemble {
	return flattree.Ensemble{Trees: m.table.Decode(), Init: m.base, Scale: m.eta, Margin: true}
}

// NumTrees returns the number of boosted trees.
func (m *Model) NumTrees() int { return len(m.table.Roots) }

// ApproxMemoryBytes implements metamodel.Model: the compiled table.
func (m *Model) ApproxMemoryBytes() int64 { return m.table.MemoryBytes() }

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Train implements metamodel.Trainer. It ignores the RNG: every round
// grows its tree on every row and column, so training draws nothing.
func (t *Trainer) Train(d *dataset.Dataset, _ *rand.Rand) (metamodel.Model, error) {
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
		eta:  cfg.LearningRate,
		base: math.Log(mean / (1 - mean)),
	}

	margin := make([]float64, n)
	for i := range margin {
		margin[i] = model.base
	}
	grad := make([]float64, n)
	hess := make([]float64, n)

	// The columnar view and per-feature sorted orders are computed once
	// on the dataset and shared by every round; the builder copies them
	// per round and reuses its scratch buffers.
	builder := newRoundBuilder(d.Columns(), d.SortedOrders(), grad, hess, margin, cfg)
	trees := make([][]flattree.Node, cfg.Rounds)
	for round := range trees {
		for i := 0; i < n; i++ {
			p := sigmoid(margin[i])
			grad[i] = p - d.Y[i]
			hess[i] = p * (1 - p)
		}
		trees[round] = builder.build()
	}
	model.table = flattree.Compile(trees)
	return model, nil
}

// tree is one boosting tree in flattree's source form while it grows.
// Leaves carry the leaf weight.
type tree []flattree.Node

func (t *tree) leaf(w float64) int32 {
	*t = append(*t, flattree.Node{Leaf: true, Value: w})
	return int32(len(*t) - 1)
}

// roundBuilder grows one boosting tree per round from presorted column
// orders: the dataset-level sorted orders are copied once per round,
// kept sorted through every split by stable partitioning, and swept
// with running gradient/hessian prefix sums — O(n) per node-column
// instead of the reference's O(n log n) sort. Scratch buffers persist
// across rounds, so steady-state growth allocates only the tree nodes.
type roundBuilder struct {
	colsView [][]float64 // columnar view: colsView[j][row]
	shared   [][]int     // dataset-level ascending row order per column
	grad     []float64
	hess     []float64
	margin   []float64 // per dataset row; leaves push eta·weight onto their rows
	cfg      Trainer

	orders  [][]int // per column: rows in ascending order, segmented by node
	rows    []int   // node rows in row order, segmented like orders
	goLeft  []bool  // per dataset row: goes left at the split being applied
	scratch []int   // right-half spill buffer for stable partitioning
	t       tree
}

func newRoundBuilder(colsView [][]float64, shared [][]int, grad, hess, margin []float64, cfg Trainer) *roundBuilder {
	n := len(grad)
	orders := make([][]int, len(colsView))
	for j := range orders {
		orders[j] = make([]int, n)
	}
	return &roundBuilder{
		colsView: colsView,
		shared:   shared,
		grad:     grad,
		hess:     hess,
		margin:   margin,
		cfg:      cfg,
		orders:   orders,
		rows:     make([]int, n),
		goLeft:   make([]bool, n),
		scratch:  make([]int, n),
	}
}

// build grows one tree over every row and column, pushing each leaf's
// eta-scaled weight onto the margins of the rows that reached it.
func (b *roundBuilder) build() tree {
	for j, ord := range b.orders {
		copy(ord, b.shared[j])
	}
	for i := range b.rows {
		b.rows[i] = i
	}
	b.t = nil
	b.grow(0, len(b.rows), 0)
	return b.t
}

// grow appends the subtree over the segment [lo, hi) of the node lists
// and returns its node index.
func (b *roundBuilder) grow(lo, hi, depth int) int32 {
	cfg := b.cfg
	var gSum, hSum float64
	for _, i := range b.rows[lo:hi] {
		gSum += b.grad[i]
		hSum += b.hess[i]
	}
	leafWeight := -gSum / (hSum + cfg.Lambda)
	if depth >= cfg.MaxDepth || hSum < 2*cfg.MinChildWeight || hi-lo < 2 {
		return b.leafAt(lo, hi, leafWeight)
	}

	feat, split, gain := b.bestSplit(lo, hi, gSum, hSum)
	if gain <= 1e-12 {
		return b.leafAt(lo, hi, leafWeight)
	}

	// Children at MaxDepth are leaves, which read only rows: the column
	// orders are partitioned only for children that may split again.
	nl := b.partition(lo, hi, feat, split, depth+1 < cfg.MaxDepth)
	if nl == 0 || nl == hi-lo {
		return b.leafAt(lo, hi, leafWeight)
	}
	self := len(b.t)
	b.t = append(b.t, flattree.Node{Feature: int32(feat), Split: split})
	l := b.grow(lo, lo+nl, depth+1)
	r := b.grow(lo+nl, hi, depth+1)
	b.t[self].Left, b.t[self].Right = l, r
	return int32(self)
}

// bestSplit maximizes the XGBoost structure gain
// GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ) over all cut points of every
// column; each column is a single prefix-sum sweep over its presorted
// node segment.
func (b *roundBuilder) bestSplit(lo, hi int, gSum, hSum float64) (feat int, split, bestGain float64) {
	cfg := b.cfg
	n := hi - lo
	parent := gSum * gSum / (hSum + cfg.Lambda)
	for f, col := range b.colsView {
		seg := b.orders[f][lo:hi]
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

// leafAt records a leaf with the given weight and advances the margins
// of its rows in place, by the same product the tree's prediction adds.
func (b *roundBuilder) leafAt(lo, hi int, w float64) int32 {
	upd := b.cfg.LearningRate * w
	for _, r := range b.rows[lo:hi] {
		b.margin[r] += upd
	}
	return b.t.leaf(w)
}

// partition stably splits the node segment [lo, hi) of the row list on
// x[feat] <= split and, when orders is set, every column's sorted list
// too, so both children remain sorted. Returns the left child size.
func (b *roundBuilder) partition(lo, hi, feat int, split float64, orders bool) int {
	col := b.colsView[feat]
	for _, r := range b.rows[lo:hi] {
		b.goLeft[r] = col[r] <= split
	}
	nl := dataset.StablePartition(b.rows[lo:hi], b.goLeft, b.scratch)
	if orders {
		for _, ord := range b.orders {
			dataset.StablePartition(ord[lo:hi], b.goLeft, b.scratch)
		}
	}
	return nl
}

// TunedTrainer returns the caret-style grid-search trainer for boosting
// over tuningGrid's candidates.
func TunedTrainer() metamodel.Trainer {
	tuned := &metamodel.Tuned{Family: "xgb"}
	for _, c := range tuningGrid() {
		tuned.Grid = append(tuned.Grid, &c)
	}
	return tuned
}

// tuningGrid is the caret-style grid for boosting: depth x rounds with a
// moderate learning rate, the dominant dimensions of the default caret
// xgbTree grid (which caps max_depth at 3 — deeper trees overfit label
// noise and fragment the pseudo-labeled region REDS peels). Every tuned
// gbt trainer, exact or binned, tunes over it.
func tuningGrid() []Trainer {
	return []Trainer{
		{Rounds: 50, MaxDepth: 1, LearningRate: 0.3},
		{Rounds: 50, MaxDepth: 3, LearningRate: 0.3},
		{Rounds: 150, MaxDepth: 2, LearningRate: 0.1},
		{Rounds: 150, MaxDepth: 3, LearningRate: 0.1},
	}
}
