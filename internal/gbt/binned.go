package gbt

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/metamodel"
)

// BinnedTrainer trains a boosted ensemble on the histogram-binned fast
// path: features are quantized once per dataset into at most Bins
// quantile bins (dataset.Bins — shared by every round and tuning fold),
// and each round's tree sweeps per-node gradient/hessian bin histograms
// with the classic sibling subtraction (only the smaller child's
// histogram is built from rows; the larger child's is parent − smaller).
//
// Binned ensembles are NOT byte-identical to exact ones — thresholds
// snap to bin edges — which is why this is a separate opt-in type rather
// than a flag on Trainer (whose exact output, including its tuning-seed
// derivation, stays untouched). The differential quality suite asserts
// CV-score parity within tolerance, and the experiment suite asserts
// that REDS finds scenarios of the same PR AUC and size on binned
// ensembles as on exact ones (RPxb against RPx).
//
// The embedded Trainer supplies the boosting shape.
type BinnedTrainer struct {
	Trainer
	// Bins caps the number of quantile bins per feature
	// (default dataset.DefaultBins, max dataset.MaxBins).
	Bins int
}

// Train implements metamodel.Trainer. Like Trainer.Train, it ignores
// the RNG.
func (t *BinnedTrainer) Train(d *dataset.Dataset, _ *rand.Rand) (metamodel.Model, error) {
	return t.trainRows(d, nil)
}

// TrainSubset implements metamodel.SubsetTrainer: it fits on the given
// rows of d against d's shared quantization, without materializing a
// per-fold sub-dataset. It ignores the RNG.
func (t *BinnedTrainer) TrainSubset(d *dataset.Dataset, rows []int, _ *rand.Rand) (metamodel.Model, error) {
	return t.trainRows(d, rows)
}

func (t *BinnedTrainer) trainRows(d *dataset.Dataset, rows []int) (metamodel.Model, error) {
	var base []int
	if rows == nil {
		base = make([]int, d.N())
		for i := range base {
			base[i] = i
		}
	} else {
		// Ascending row order keeps the histogram gathers (bin codes,
		// gradient pairs) prefetch-friendly down the whole tree: stable
		// partitioning preserves sortedness in every node segment.
		base = append([]int(nil), rows...)
		sort.Ints(base)
	}
	if len(base) < 2 {
		return nil, fmt.Errorf("gbt: need at least 2 examples, got %d", len(base))
	}
	budget := t.Bins
	if budget == 0 {
		budget = dataset.DefaultBins
	}
	bst := newBooster(t.withDefaults(), d, base, dataset.NewNodes(len(base), nil))
	b := &binnedRoundBuilder{booster: bst, hists: d.Bins(budget).NewHist(bst.gh), m: d.M()}
	return b.boost(b.growRoot), nil
}

// gbtSplitCand accumulates the best bin cut seen during a sweep, with
// the left child's gradient statistics at that cut.
type gbtSplitCand struct {
	feat, cut int
	gain      float64
	gl, hl    float64
}

// binnedRoundBuilder grows one boosting tree per round over the shared
// quantization.
type binnedRoundBuilder struct {
	*booster
	hists *dataset.Hist // all-feature histograms of the (grad, hess) pairs
	m     int
}

// growRoot grows the round's tree from the root, whose gradient sums it
// takes here; every other node gets its own from its parent's sweep.
func (b *binnedRoundBuilder) growRoot() {
	gh := b.gh
	var gSum, hSum float64
	for _, i := range b.rows {
		gSum += gh[2*i]
		hSum += gh[2*i+1]
	}
	b.grow(0, len(b.rows), 0, gSum, hSum, nil)
}

// grow appends the subtree over the node [lo, hi) and returns its node
// index. gSum/hSum are threaded down from the parent's sweep; hist is
// the node's all-feature histogram (nil = build here), owned by this
// call.
func (b *binnedRoundBuilder) grow(lo, hi, depth int, gSum, hSum float64, hist []float64) int32 {
	cfg := b.cfg
	leafWeight := -gSum / (hSum + cfg.Lambda)
	if depth >= cfg.MaxDepth || hSum < 2*cfg.MinChildWeight || hi-lo < 2 {
		b.hists.Put(hist)
		return b.leafAt(lo, hi, leafWeight)
	}
	if hist == nil {
		hist = b.hists.Get()
		b.hists.Fill(hist, b.nodes.Rows[lo:hi])
	}

	var best gbtSplitCand
	parent := gSum * gSum / (hSum + cfg.Lambda)
	for f := 0; f < b.m; f++ {
		b.sweep(f, b.hists.Feature(hist, f), gSum, hSum, parent, &best)
	}
	if best.gain <= 1e-12 {
		b.hists.Put(hist)
		return b.leafAt(lo, hi, leafWeight)
	}

	// The sweep tracks hessian mass, not row counts, so the split checks
	// that both children hold rows.
	nl := b.nodes.SplitCut(lo, hi, b.hists.ColumnCodes(best.feat), uint8(best.cut))
	if nl == 0 || nl == hi-lo {
		b.hists.Put(hist)
		return b.leafAt(lo, hi, leafWeight)
	}

	gl, hl := best.gl, best.hl
	gr, hr := gSum-gl, hSum-hl
	seg := b.nodes.Rows[lo:hi]
	lHist, rHist := b.hists.Children(seg, nl, b.needHist(nl, hl, depth), b.needHist(len(seg)-nl, hr, depth), hist)
	self := len(b.t)
	b.t = append(b.t, flattree.Node{Feature: int32(best.feat), Split: b.hists.Edge(best.feat, best.cut)})
	l := b.grow(lo, lo+nl, depth+1, gl, hl, lHist)
	r := b.grow(lo+nl, hi, depth+1, gr, hr, rHist)
	b.t[self].Left, b.t[self].Right = l, r
	return int32(self)
}

// sweep scans the bin cuts of feature f (its histogram cells) for the
// best XGBoost structure gain.
func (b *binnedRoundBuilder) sweep(f int, cells []float64, gSum, hSum, parent float64, best *gbtSplitCand) {
	cfg := b.cfg
	var gl, hl float64
	for c := 0; c < len(cells)/2-1; c++ {
		g, h := cells[2*c], cells[2*c+1]
		if g == 0 && h == 0 {
			continue // empty bin: same partition as the previous cut
		}
		gl += g
		hl += h
		hr := hSum - hl
		if hl < cfg.MinChildWeight || hr < cfg.MinChildWeight {
			continue
		}
		gr := gSum - gl
		gain := gl*gl/(hl+cfg.Lambda) + gr*gr/(hr+cfg.Lambda) - parent
		if gain > best.gain {
			*best = gbtSplitCand{feat: f, cut: c, gain: gain, gl: gl, hl: hl}
		}
	}
}

// needHist reports whether a child of cnt rows and hessian mass h, one
// level below depth, can split. A guaranteed leaf gets no histogram.
func (b *binnedRoundBuilder) needHist(cnt int, h float64, depth int) bool {
	cfg := b.cfg
	return depth+1 < cfg.MaxDepth && cnt >= 2 && h >= 2*cfg.MinChildWeight
}

// TunedTrainerBinned is TunedTrainer on the histogram-binned fast path:
// the same depth × rounds candidates, but every one trains binned at the
// given bin budget and the tuner's shared-fold path reuses one
// quantization of the parent dataset across all fold × candidate cells.
func TunedTrainerBinned(bins int) metamodel.Trainer {
	tuned := &metamodel.Tuned{Family: "xgb"}
	for _, c := range tuningGrid() {
		tuned.Grid = append(tuned.Grid, &BinnedTrainer{Trainer: c, Bins: bins})
	}
	return tuned
}
