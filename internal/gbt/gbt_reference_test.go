package gbt

// This file keeps the original per-node sorting tree induction as the
// test oracle of the fast path. The fast path in gbt.go keeps every
// column's rows presorted through each round's splits and sweeps them
// with running gradient/hessian prefix sums; differential tests assert
// both paths grow identical ensembles.

import (
	"math"
	"sort"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
)

// trainReference is Trainer.Train with the reference tree induction:
// the same base score and gradients per round, and margins advanced by
// descending each new tree per row. It grows the fast path's ensemble
// as long as no two distinct rows share a feature value; across
// genuinely tied rows the reference's unstable sort visits them in a
// different order, so gradient partial sums (and with them exact split
// tie-breaking) can differ in the last float64 bit.
func trainReference(t *Trainer, d *dataset.Dataset) *Model {
	cfg := t.withDefaults()
	n := d.N()
	mean := math.Min(math.Max(d.PositiveShare(), 1e-6), 1-1e-6)
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
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	trees := make([][]flattree.Node, cfg.Rounds)
	for round := range trees {
		for i := 0; i < n; i++ {
			p := sigmoid(margin[i])
			grad[i] = p - d.Y[i]
			hess[i] = p * (1 - p)
		}
		var tr flattree.Tree
		growReference(&tr, d.X, grad, hess, rows, cfg, 0)
		for i, x := range d.X {
			margin[i] += cfg.LearningRate * tr[flattree.Descend(tr, x)].Value
		}
		trees[round] = tr
	}
	model.table = flattree.Compile(trees)
	return model
}

// growReference appends the subtree over rows and returns its node
// index.
func growReference(t *flattree.Tree, x [][]float64, grad, hess []float64, rows []int, cfg Trainer, depth int) int32 {
	var gSum, hSum float64
	for _, i := range rows {
		gSum += grad[i]
		hSum += hess[i]
	}
	leafWeight := -gSum / (hSum + cfg.Lambda)
	if depth >= cfg.MaxDepth || hSum < 2*cfg.MinChildWeight || len(rows) < 2 {
		return t.Leaf(leafWeight)
	}

	feat, split, gain := bestSplitReference(x, grad, hess, rows, cfg, gSum, hSum)
	if gain <= 1e-12 {
		return t.Leaf(leafWeight)
	}

	var left, right []int
	for _, i := range rows {
		if x[i][feat] <= split {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return t.Leaf(leafWeight)
	}
	self := len(*t)
	*t = append(*t, flattree.Node{Feature: int32(feat), Split: split})
	l := growReference(t, x, grad, hess, left, cfg, depth+1)
	r := growReference(t, x, grad, hess, right, cfg, depth+1)
	(*t)[self].Left, (*t)[self].Right = l, r
	return int32(self)
}

// bestSplitReference maximizes the XGBoost structure gain
// GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ) over all cut points of every
// column, sorting the node's rows along each column.
func bestSplitReference(x [][]float64, grad, hess []float64, rows []int, cfg Trainer, gSum, hSum float64) (feat int, split, bestGain float64) {
	order := make([]int, len(rows))
	parent := gSum * gSum / (hSum + cfg.Lambda)
	for f := range x[0] {
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
