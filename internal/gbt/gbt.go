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
	n := d.N()
	if n < 2 {
		return nil, fmt.Errorf("gbt: need at least 2 examples, got %d", n)
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	// The columnar view and per-feature sorted orders are computed once
	// on the dataset and shared by every round; the node lists copy the
	// orders at the start of each round.
	b := &roundBuilder{cols: d.Columns()}
	b.booster = newBooster(t.withDefaults(), d, rows, dataset.NewNodes(n, d.SortedOrders()))
	return b.boost(func() { b.grow(0, n, 0) }), nil
}

// booster is the boosting loop exact and binned gbt share: the base
// score, the margins, each round's gradient pairs and node lists, and
// the leaves' margin push. Each round builder embeds it and grows every
// round's tree from the root; the node lists persist across rounds, so
// steady-state growth allocates only the tree nodes.
type booster struct {
	cfg   Trainer
	y     []float64
	rows  []int // the rows every round grows on, ascending dataset ids
	nodes *dataset.Nodes
	// Gradient state is indexed by dataset row id (only rows are ever
	// touched), so histogram fills gather through the shared bin codes
	// without an id translation. Grad and hess are interleaved (gh[2i],
	// gh[2i+1]): one cache line per row in the fill and sweep loops.
	gh     []float64
	margin []float64 // per dataset row; leaves push eta·weight onto their rows
	base   float64   // initial log-odds
	t      flattree.Tree
}

// newBooster starts the margins of rows, ascending dataset ids of d, at
// the base score: the log-odds of their mean label, clipped away from
// the degenerate extremes.
func newBooster(cfg Trainer, d *dataset.Dataset, rows []int, nodes *dataset.Nodes) *booster {
	mean := 0.0
	for _, i := range rows {
		mean += d.Y[i]
	}
	mean /= float64(len(rows))
	if mean < 1e-6 {
		mean = 1e-6
	}
	if mean > 1-1e-6 {
		mean = 1 - 1e-6
	}
	b := &booster{
		cfg:    cfg,
		y:      d.Y,
		rows:   rows,
		nodes:  nodes,
		gh:     make([]float64, 2*d.N()),
		margin: make([]float64, d.N()),
		base:   math.Log(mean / (1 - mean)),
	}
	for _, i := range rows {
		b.margin[i] = b.base
	}
	return b
}

// boost runs the rounds. Each one sets the rows' gradient pairs from
// their margins, starts the node lists on the rows and calls grow, which
// grows the round's tree into b.t from the root; the tree's leaves
// advance the margins. It returns the compiled model.
func (b *booster) boost(grow func()) *Model {
	y, gh, margin := b.y, b.gh, b.margin
	trees := make([][]flattree.Node, b.cfg.Rounds)
	for round := range trees {
		for _, i := range b.rows {
			p := sigmoid(margin[i])
			gh[2*i] = p - y[i]
			gh[2*i+1] = p * (1 - p)
		}
		b.nodes.Start(b.rows)
		b.t = nil
		grow()
		trees[round] = b.t
	}
	return &Model{table: flattree.Compile(trees), eta: b.cfg.LearningRate, base: b.base}
}

// leafAt records a leaf with weight w for node [lo, hi) and advances the
// margins of its rows in place, by the same product the tree's
// prediction adds: the growth pass already knows which rows landed
// here, so no round walks its tree per row.
func (b *booster) leafAt(lo, hi int, w float64) int32 {
	upd := b.cfg.LearningRate * w
	margin := b.margin
	for _, r := range b.nodes.Rows[lo:hi] {
		margin[r] += upd
	}
	return b.t.Leaf(w)
}

// roundBuilder grows one boosting tree per round from presorted column
// orders: the node lists keep every column's rows sorted through each
// split, and each node sweeps them with running gradient/hessian prefix
// sums — O(n) per node-column instead of the reference's O(n log n)
// sort.
type roundBuilder struct {
	*booster
	cols [][]float64 // columnar view: cols[j][row]
}

// grow appends the subtree over the node [lo, hi) of the node lists and
// returns its node index.
func (b *roundBuilder) grow(lo, hi, depth int) int32 {
	cfg, gh := b.cfg, b.gh
	var gSum, hSum float64
	for _, i := range b.nodes.Rows[lo:hi] {
		gSum += gh[2*i]
		hSum += gh[2*i+1]
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
	nl := b.nodes.Split(lo, hi, b.cols[feat], split, depth+1 < cfg.MaxDepth)
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
	lambda, orders := b.cfg.Lambda, b.nodes.Orders
	parent := gSum * gSum / (hSum + lambda)
	for f, col := range b.cols {
		if s, gain := sweepSorted(orders[f][lo:hi], col, b.gh, gSum, hSum, parent, bestGain, b.cfg); gain > bestGain {
			feat, split, bestGain = f, s, gain
		}
	}
	return feat, split, bestGain
}

// sweepSorted scans the cuts between distinct values of col along seg,
// a node's rows in ascending col order, and returns the split and gain
// of the first cut with the highest gain above bestGain, or bestGain
// when no cut beats it. A function of its own, the sweep keeps every
// value it loops over in a register.
func sweepSorted(seg []int, col, gh []float64, gSum, hSum, parent, bestGain float64, cfg Trainer) (split, gain float64) {
	gain = bestGain
	var gl, hl float64
	for k, i := range seg[:len(seg)-1] {
		gl += gh[2*i]
		hl += gh[2*i+1]
		next := col[seg[k+1]]
		if next == col[i] {
			continue
		}
		hr := hSum - hl
		if hl < cfg.MinChildWeight || hr < cfg.MinChildWeight {
			continue
		}
		gr := gSum - gl
		if g := gl*gl/(hl+cfg.Lambda) + gr*gr/(hr+cfg.Lambda) - parent; g > gain {
			gain = g
			split = (col[i] + next) / 2
		}
	}
	return split, gain
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
