package gbt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/metamodel"
)

// BinnedTrainer trains a boosted ensemble on the histogram-binned fast
// path: features are quantized once per dataset into at most Bins
// quantile bins (dataset.Bins — shared by every round and tuning fold),
// and each round's tree sweeps per-node gradient/hessian bin histograms
// with the classic sibling subtraction (only the smaller child's
// histogram is built from rows; the larger child's is parent − smaller,
// always valid here because a round's candidate columns are fixed).
//
// Binned ensembles are NOT byte-identical to exact ones — thresholds
// snap to bin edges — which is why this is a separate opt-in type rather
// than a flag on Trainer (whose exact output, including its tuning-seed
// derivation, stays untouched). The differential quality suite asserts
// CV-score parity within tolerance, and the engine falls back to exact
// training per variant when a holdout quality gate misses.
//
// The embedded Trainer supplies the boosting shape.
type BinnedTrainer struct {
	Trainer
	// Bins caps the number of quantile bins per feature
	// (default dataset.DefaultBins, max dataset.MaxBins).
	Bins int
}

// Train implements metamodel.Trainer.
func (t *BinnedTrainer) Train(d *dataset.Dataset, rng *rand.Rand) (metamodel.Model, error) {
	return t.trainRows(d, nil, rng)
}

// SharedFolds implements metamodel.SubsetTrainer: the quantization is
// computed on the parent dataset and shared across fold subsets.
func (t *BinnedTrainer) SharedFolds() bool { return true }

// TrainSubset implements metamodel.SubsetTrainer: it fits on the given
// rows of d against d's shared quantization, without materializing a
// per-fold sub-dataset.
func (t *BinnedTrainer) TrainSubset(d *dataset.Dataset, rows []int, rng *rand.Rand) (metamodel.Model, error) {
	return t.trainRows(d, rows, rng)
}

func (t *BinnedTrainer) trainRows(d *dataset.Dataset, rows []int, rng *rand.Rand) (metamodel.Model, error) {
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
	cfg := t.withDefaults()
	budget := t.Bins
	if budget == 0 {
		budget = dataset.DefaultBins
	}
	bins := d.Bins(budget)

	mean := 0.0
	for _, i := range base {
		mean += d.Y[i]
	}
	mean /= float64(len(base))
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

	// Gradient state is indexed by dataset row id (only the subset rows
	// are ever touched), so histogram fills can gather through the shared
	// bin codes without an id translation. Grad and hess are interleaved
	// (gh[2i], gh[2i+1]) — one cache line per row in the fill loop.
	margin := make([]float64, d.N())
	gh := make([]float64, 2*d.N())
	for _, i := range base {
		margin[i] = model.base
	}
	// Rows left out by subsampling still need their margins advanced by
	// tree traversal; sampled rows get theirs leaf-directly during growth.
	var inSample []bool
	if cfg.SubSample < 1 {
		inSample = make([]bool, d.N())
	}

	builder := newBinnedRoundBuilder(bins, d.M(), gh, margin, cfg, len(base))

	for round := 0; round < cfg.Rounds; round++ {
		for _, i := range base {
			p := sigmoid(margin[i])
			gh[2*i] = p - d.Y[i]
			gh[2*i+1] = p * (1 - p)
		}
		sampled := sampleRowsFrom(base, cfg.SubSample, rng)
		cols := sampleCols(d.M(), cfg.ColSample, rng)
		tr := btree{}
		builder.build(&tr, sampled, cols, model.gains)
		model.trees = append(model.trees, tr)
		if len(sampled) != len(base) {
			for _, i := range sampled {
				inSample[i] = true
			}
			for _, i := range base {
				if !inSample[i] {
					margin[i] += cfg.LearningRate * tr.predict(d.X[i])
				}
			}
			for _, i := range sampled {
				inSample[i] = false
			}
		}
	}
	return model, nil
}

// sampleRowsFrom is sampleRows over an explicit row-id set; the result
// preserves base's order (ascending — see trainRows).
func sampleRowsFrom(base []int, ratio float64, rng *rand.Rand) []int {
	if ratio >= 1 {
		return base
	}
	k := int(float64(len(base)) * ratio)
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(len(base))[:k]
	sort.Ints(perm)
	rows := make([]int, k)
	for i, p := range perm {
		rows[i] = base[p]
	}
	return rows
}

// gbtHistCell is the number of float64 slots per (column, bin) histogram
// cell: Σgrad, Σhess.
const gbtHistCell = 2

// gbtSplitCand accumulates the best bin cut seen during a sweep, with
// the left child's gradient statistics at that cut.
type gbtSplitCand struct {
	feat, ci, cut int
	gain          float64
	gl, hl        float64
}

// binnedRoundBuilder grows one boosting tree per round over the shared
// quantization. Scratch buffers persist across rounds.
type binnedRoundBuilder struct {
	bins   *dataset.Bins
	codes  [][]uint8 // per feature: bin code per dataset row
	gh     []float64 // interleaved (grad, hess) per dataset row
	margin []float64 // per dataset row; leaves push eta·weight directly
	cfg    Trainer
	m      int
	stride int // gbtHistCell · max bins over features

	rows    []int // node rows (dataset ids), segmented
	cols    []int // this round's candidate column ids
	scratch []int // partition staging buffer
	free    [][]float64
	gains   []float64
	t       *btree
}

func newBinnedRoundBuilder(bins *dataset.Bins, m int, gh, margin []float64, cfg Trainer, nRows int) *binnedRoundBuilder {
	codes := make([][]uint8, m)
	maxNB := 1
	for f := 0; f < m; f++ {
		codes[f] = bins.ColumnCodes(f)
		if nb := bins.NumBins(f); nb > maxNB {
			maxNB = nb
		}
	}
	return &binnedRoundBuilder{
		bins:    bins,
		codes:   codes,
		gh:      gh,
		margin:  margin,
		cfg:     cfg,
		m:       m,
		stride:  gbtHistCell * maxNB,
		rows:    make([]int, 0, nRows),
		scratch: make([]int, nRows),
	}
}

// build grows one tree over the sampled rows and candidate cols, adding
// split gains into gains and pushing each leaf's eta-scaled weight onto
// the margins of the rows that reached it.
func (b *binnedRoundBuilder) build(t *btree, rows, cols []int, gains []float64) {
	b.rows = append(b.rows[:0], rows...)
	b.cols = cols
	b.t = t
	b.gains = gains
	var gSum, hSum float64
	for _, i := range rows {
		gSum += b.gh[2*i]
		hSum += b.gh[2*i+1]
	}
	b.grow(0, len(rows), 0, gSum, hSum, nil)
}

// leafAt records a leaf with the given weight and advances the margins
// of its rows in place — the growth pass already knows which rows landed
// here, so sampled rows never pay a per-round tree traversal.
func (b *binnedRoundBuilder) leafAt(lo, hi int, w float64) int {
	upd := b.cfg.LearningRate * w
	for _, r := range b.rows[lo:hi] {
		b.margin[r] += upd
	}
	return leaf(b.t, w)
}

// grow appends the subtree over the segment [lo, hi) and returns its
// node index. gSum/hSum are threaded down from the parent's sweep; hist
// is the node's per-candidate-column histogram (nil = build here), owned
// by this call.
func (b *binnedRoundBuilder) grow(lo, hi, depth int, gSum, hSum float64, hist []float64) int {
	cfg := b.cfg
	leafWeight := -gSum / (hSum + cfg.Lambda)
	if depth >= cfg.MaxDepth || hSum < 2*cfg.MinChildWeight || hi-lo < 2 {
		b.releaseHist(hist)
		return b.leafAt(lo, hi, leafWeight)
	}
	if hist == nil {
		hist = b.allocHist()
		b.buildHist(lo, hi, hist)
	}

	var best gbtSplitCand
	parent := gSum * gSum / (hSum + cfg.Lambda)
	for ci, f := range b.cols {
		b.sweep(f, ci, hist[ci*b.stride:(ci+1)*b.stride], gSum, hSum, parent, &best)
	}
	if best.gain <= 1e-12 {
		b.releaseHist(hist)
		return b.leafAt(lo, hi, leafWeight)
	}
	b.gains[best.feat] += best.gain

	// Stable partition in two passes over the cache-hot code bytes:
	// count the left half, then place both halves directly into their
	// scratch segments (the sweep tracks hessian mass, not row counts,
	// so the count pass stays).
	code := b.codes[best.feat]
	cut := uint8(best.cut)
	seg, scratch := b.rows[lo:hi], b.scratch
	nl := 0
	for _, r := range seg {
		if code[r] <= cut {
			nl++
		}
	}
	if nl == 0 || nl == len(seg) {
		b.releaseHist(hist)
		return b.leafAt(lo, hi, leafWeight)
	}
	p, q := 0, nl
	for _, r := range seg {
		if code[r] <= cut {
			scratch[p] = r
			p++
		} else {
			scratch[q] = r
			q++
		}
	}
	copy(seg, scratch[:len(seg)])

	gl, hl := best.gl, best.hl
	gr, hr := gSum-gl, hSum-hl
	lHist, rHist := b.childHists(lo, lo+nl, hi, depth, hl, hr, hist)
	self := len(b.t.nodes)
	b.t.nodes = append(b.t.nodes, node{feature: best.feat, split: b.bins.Edge(best.feat, best.cut)})
	l := b.grow(lo, lo+nl, depth+1, gl, hl, lHist)
	r := b.grow(lo+nl, hi, depth+1, gr, hr, rHist)
	b.t.nodes[self].left = l
	b.t.nodes[self].right = r
	return self
}

// sweep scans the bin cuts of candidate column f (histogram cells) for
// the best XGBoost structure gain.
func (b *binnedRoundBuilder) sweep(f, ci int, cells []float64, gSum, hSum, parent float64, best *gbtSplitCand) {
	cfg := b.cfg
	nb := b.bins.NumBins(f)
	var gl, hl float64
	for c := 0; c < nb-1; c++ {
		g, h := cells[gbtHistCell*c], cells[gbtHistCell*c+1]
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
			*best = gbtSplitCand{feat: f, ci: ci, cut: c, gain: gain, gl: gl, hl: hl}
		}
	}
}

// childHists derives the children's histograms from the parent's: the
// smaller child's is built from its rows, the larger child's is
// parent − smaller in place. Children that are guaranteed leaves by
// depth, size or hessian mass get nil and skip the work.
func (b *binnedRoundBuilder) childHists(lo, mid, hi, depth int, hl, hr float64, parent []float64) (lHist, rHist []float64) {
	cfg := b.cfg
	needL := depth+1 < cfg.MaxDepth && mid-lo >= 2 && hl >= 2*cfg.MinChildWeight
	needR := depth+1 < cfg.MaxDepth && hi-mid >= 2 && hr >= 2*cfg.MinChildWeight
	used := len(b.cols) * b.stride
	switch {
	case needL && needR:
		small := b.allocHist()
		if mid-lo <= hi-mid {
			b.buildHist(lo, mid, small)
			lHist, rHist = small, parent
		} else {
			b.buildHist(mid, hi, small)
			lHist, rHist = parent, small
		}
		for i, v := range small[:used] {
			parent[i] -= v
		}
	case needL:
		b.zeroHist(parent)
		b.buildHist(lo, mid, parent)
		lHist = parent
	case needR:
		b.zeroHist(parent)
		b.buildHist(mid, hi, parent)
		rHist = parent
	default:
		b.releaseHist(parent)
	}
	return lHist, rHist
}

// buildHist accumulates the per-candidate-column histogram of the rows
// in [lo, hi) into hist, which must be zeroed. Column-outer order keeps
// each pass streaming through one byte array of codes and the
// interleaved gradient pairs in ascending row order.
func (b *binnedRoundBuilder) buildHist(lo, hi int, hist []float64) {
	rows := b.rows[lo:hi]
	gh := b.gh
	for ci, f := range b.cols {
		cells := hist[ci*b.stride : (ci+1)*b.stride]
		code := b.codes[f]
		for _, r := range rows {
			c := gbtHistCell * int(code[r])
			cells[c] += gh[2*r]
			cells[c+1] += gh[2*r+1]
		}
	}
}

func (b *binnedRoundBuilder) allocHist() []float64 {
	if k := len(b.free); k > 0 {
		h := b.free[k-1]
		b.free = b.free[:k-1]
		b.zeroHist(h)
		return h
	}
	// Sized for the worst case (all columns as candidates) so buffers
	// can be reused across rounds with differing column samples.
	return make([]float64, b.m*b.stride)
}

func (b *binnedRoundBuilder) zeroHist(h []float64) {
	for i := range h {
		h[i] = 0
	}
}

func (b *binnedRoundBuilder) releaseHist(h []float64) {
	if h != nil {
		b.free = append(b.free, h)
	}
}

// TunedTrainerBinned is TunedTrainer on the histogram-binned fast path:
// the same depth × rounds grid, but every candidate trains binned at the
// given bin budget and the tuner's shared-fold path reuses one
// quantization of the parent dataset across all fold × candidate cells.
func TunedTrainerBinned(bins int) metamodel.Trainer {
	return &metamodel.Tuned{Family: "xgb", Grid: []metamodel.Trainer{
		&BinnedTrainer{Trainer: Trainer{Rounds: 50, MaxDepth: 1, LearningRate: 0.3}, Bins: bins},
		&BinnedTrainer{Trainer: Trainer{Rounds: 50, MaxDepth: 3, LearningRate: 0.3}, Bins: bins},
		&BinnedTrainer{Trainer: Trainer{Rounds: 150, MaxDepth: 2, LearningRate: 0.1}, Bins: bins},
		&BinnedTrainer{Trainer: Trainer{Rounds: 150, MaxDepth: 3, LearningRate: 0.1}, Bins: bins},
	}}
}
