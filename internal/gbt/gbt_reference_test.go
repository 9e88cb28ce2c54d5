package gbt

// This file keeps the original per-node sorting tree induction as the
// test oracle of the fast path. The fast path in gbt.go presorts the
// sampled rows along every candidate column once per round and sweeps
// splits with running gradient/hessian prefix sums; differential tests
// assert both paths grow identical ensembles.

import (
	"math"
	"math/rand"
	"sort"

	"github.com/reds-go/reds/internal/dataset"
)

// trainReference is Trainer.Train with the reference tree induction:
// the same base score, gradients and row/column draws per round. It
// grows the fast path's ensemble as long as no two distinct rows share
// a feature value; across genuinely tied rows the reference's unstable
// sort visits them in a different order, so gradient partial sums (and
// with them exact split tie-breaking) can differ in the last float64
// bit.
func trainReference(t *Trainer, d *dataset.Dataset, rng *rand.Rand) *Model {
	cfg := t.withDefaults()
	n := d.N()
	mean := math.Min(math.Max(d.PositiveShare(), 1e-6), 1-1e-6)
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
	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			p := sigmoid(margin[i])
			grad[i] = p - d.Y[i]
			hess[i] = p * (1 - p)
		}
		rows := sampleRows(n, cfg.SubSample, rng)
		cols := sampleCols(d.M(), cfg.ColSample, rng)
		tr := btree{}
		growReference(&tr, d.X, grad, hess, rows, cols, cfg, 0, model.gains)
		model.trees = append(model.trees, tr)
		for i := 0; i < n; i++ {
			margin[i] += cfg.LearningRate * tr.predict(d.X[i])
		}
	}
	return model
}

// growReference appends the subtree over rows and returns its node
// index, adding split gains into the importance accumulator.
func growReference(t *btree, x [][]float64, grad, hess []float64, rows, cols []int, cfg Trainer, depth int, gains []float64) int {
	var gSum, hSum float64
	for _, i := range rows {
		gSum += grad[i]
		hSum += hess[i]
	}
	leafWeight := -gSum / (hSum + cfg.Lambda)
	if depth >= cfg.MaxDepth || hSum < 2*cfg.MinChildWeight || len(rows) < 2 {
		return leaf(t, leafWeight)
	}

	feat, split, gain := bestSplitReference(x, grad, hess, rows, cols, cfg, gSum, hSum)
	if gain <= 1e-12 {
		return leaf(t, leafWeight)
	}
	gains[feat] += gain

	var left, right []int
	for _, i := range rows {
		if x[i][feat] <= split {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return leaf(t, leafWeight)
	}
	self := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: feat, split: split})
	l := growReference(t, x, grad, hess, left, cols, cfg, depth+1, gains)
	r := growReference(t, x, grad, hess, right, cols, cfg, depth+1, gains)
	t.nodes[self].left = l
	t.nodes[self].right = r
	return self
}

// bestSplitReference maximizes the XGBoost structure gain
// GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ) over all cut points of the
// candidate columns, sorting the node's rows along each column.
func bestSplitReference(x [][]float64, grad, hess []float64, rows, cols []int, cfg Trainer, gSum, hSum float64) (feat int, split, bestGain float64) {
	order := make([]int, len(rows))
	parent := gSum * gSum / (hSum + cfg.Lambda)
	for _, f := range cols {
		copy(order, rows)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		var gl, hl float64
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			gl += grad[i]
			hl += hess[i]
			if x[order[k+1]][f] == x[i][f] {
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
				split = (x[i][f] + x[order[k+1]][f]) / 2
			}
		}
	}
	return feat, split, bestGain
}
