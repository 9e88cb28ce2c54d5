package rf

import (
	"fmt"
	"math/bits"
	"math/rand"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/par"
)

// BinnedTrainer trains a random forest on the histogram-binned fast
// path: features are quantized once per dataset into at most Bins
// quantile bins (dataset.Bins — shared by every tree, bootstrap and
// tuning fold), and split finding sweeps per-node bin histograms instead
// of maintaining per-feature sorted orders through every partition.
//
// Binned trees are NOT byte-identical to exact trees — thresholds snap
// to bin edges and candidate cuts inside a bin disappear — which is why
// this is a separate opt-in type rather than a flag on Trainer (whose
// exact output, including its tuning-seed derivation, stays untouched).
// The differential quality suite asserts CV-score parity within
// tolerance, and the experiment suite asserts that REDS finds scenarios
// of the same PR AUC and size on binned forests as on exact ones (RPfb
// against RPf).
//
// The embedded Trainer supplies the forest shape (NTrees, MTry, MinLeaf,
// MaxDepth).
type BinnedTrainer struct {
	Trainer
	// Bins caps the number of quantile bins per feature
	// (default dataset.DefaultBins, max dataset.MaxBins).
	Bins int
}

// TuningKey is Trainer.TuningKey for the binned trainer, frozen the
// same way and for the same reason.
func (t *BinnedTrainer) TuningKey() string {
	return fmt.Sprintf("*rf.BinnedTrainer&{Trainer:{NTrees:%d MTry:%d MinLeaf:%d MaxDepth:%d Reference:false} Bins:%d}",
		t.NTrees, t.MTry, t.MinLeaf, t.MaxDepth, t.Bins)
}

// Train implements metamodel.Trainer.
func (t *BinnedTrainer) Train(d *dataset.Dataset, rng *rand.Rand) (metamodel.Model, error) {
	return t.trainRows(d, nil, rng)
}

// TrainSubset implements metamodel.SubsetTrainer: it fits on the given
// rows of d against d's shared quantization, without materializing a
// per-fold sub-dataset (no column copy, no re-sort, no re-binning).
func (t *BinnedTrainer) TrainSubset(d *dataset.Dataset, rows []int, rng *rand.Rand) (metamodel.Model, error) {
	return t.trainRows(d, rows, rng)
}

func (t *BinnedTrainer) trainRows(d *dataset.Dataset, rows []int, rng *rand.Rand) (metamodel.Model, error) {
	nRows := d.N()
	if rows != nil {
		nRows = len(rows)
	}
	if nRows < 2 {
		return nil, fmt.Errorf("rf: need at least 2 examples, got %d", nRows)
	}
	budget := t.Bins
	if budget == 0 {
		budget = dataset.DefaultBins
	}
	bins := d.Bins(budget)
	cfg, seeds := t.plan(d.M(), rng)
	trees := make([]*tree, len(seeds))
	builders := make([]*binnedTreeBuilder, len(seeds))
	idxs := make([][]int, len(seeds))
	par.For(len(seeds), func(w, ti int) {
		if builders[w] == nil {
			builders[w], idxs[w] = newBinnedTreeBuilder(bins, d.Y, d.M(), nRows, cfg), make([]int, nRows)
		}
		idx := idxs[w]
		local := binnedRNG(seeds[ti])
		if rows == nil {
			for k := range idx {
				idx[k] = local.intn(nRows)
			}
		} else {
			for k := range idx {
				idx[k] = rows[local.intn(nRows)]
			}
		}
		trees[ti] = builders[w].build(idx, &local)
	})
	return newForest(trees), nil
}

// binnedRNG is a splitmix64 generator used on the binned path for
// bootstrap draws and per-node feature sampling. math/rand's default
// Source pays a 607-word seeding per rand.New — at one generator per
// tree that was ~30% of a tuned binned train in profiles. The binned
// path has no byte-compatibility contract with the exact path, so it
// takes the cheap generator; determinism (same seed, same forest) is
// preserved.
type binnedRNG uint64

func (s *binnedRNG) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n) for 0 < n <= 1<<31 (Lemire's
// multiply-shift; the ~2^-32 bias is irrelevant for sampling).
func (s *binnedRNG) intn(n int) int {
	return int((s.next() >> 32) * uint64(n) >> 32)
}

// histCell is the number of float64 slots per (feature, bin) histogram
// cell: count, Σy. Child Σy² (for the pure-node leaf check) is picked up
// during the partition pass instead of riding in every cell.
const histCell = 2

// splitCand accumulates the best bin cut seen so far during a sweep,
// together with the left child's row count and label sum at that cut —
// the partition pass places rows in one sweep because the split already
// knows where the right half starts.
type splitCand struct {
	feat, cut int
	lcount    int
	gain      float64
	lsum      float64
	ok        bool
}

// binnedTreeBuilder grows trees over the shared quantization. One
// builder serves one worker goroutine; its scratch buffers are reused
// across the trees that worker grows.
//
// Split finding per node uses one of two histogram strategies:
//
//   - direct: each sampled feature is filled, swept and re-zeroed
//     through one single-feature buffer, tracking occupied bins in a
//     bitmask so deep nodes (few rows scattered over the bin range)
//     touch only their handful of live cells instead of the full bin
//     budget.
//   - sibling subtraction: when most features are swept per node anyway
//     (2·mtry > M) and the node is large relative to the bin budget, an
//     all-feature histogram is carried down the recursion — only the
//     smaller child's is built from rows, and the larger child's is the
//     classic subtraction larger = parent − smaller.
type binnedTreeBuilder struct {
	bins       *dataset.Bins
	codes      [][]uint8 // per feature: bin code per dataset row
	nb         []int     // per feature: bin count (avoids NumBins calls per node)
	y          []float64
	m          int
	stride     int // histCell · max bins over features
	cfg        treeConfig
	siblingOK  bool // sampled features cover most of M
	siblingMin int  // minimum node rows for an all-feature histogram

	rows    []int // node rows (dataset ids, bootstrap multiplicity), segmented
	scratch []int // partition staging buffer
	feats   []int // permutation buffer for per-node feature sampling

	fhist []float64   // direct mode single-feature buffer, kept zeroed
	free  [][]float64 // sibling mode all-feature histogram free list
	recip []float64   // recip[k] = 1/k for node sizes, so sweeps multiply instead of divide

	t   *tree
	rng *binnedRNG
}

func newBinnedTreeBuilder(bins *dataset.Bins, y []float64, m, nRows int, cfg treeConfig) *binnedTreeBuilder {
	if cfg.mtry <= 0 || cfg.mtry > m {
		cfg.mtry = m
	}
	codes := make([][]uint8, m)
	nb := make([]int, m)
	maxNB := 1
	for f := 0; f < m; f++ {
		codes[f] = bins.ColumnCodes(f)
		nb[f] = bins.NumBins(f)
		if nb[f] > maxNB {
			maxNB = nb[f]
		}
	}
	feats := make([]int, m)
	for f := range feats {
		feats[f] = f
	}
	recip := make([]float64, nRows+1)
	for k := 1; k <= nRows; k++ {
		recip[k] = 1 / float64(k)
	}
	return &binnedTreeBuilder{
		bins:      bins,
		codes:     codes,
		nb:        nb,
		y:         y,
		m:         m,
		stride:    histCell * maxNB,
		cfg:       cfg,
		siblingOK: 2*cfg.mtry > m,
		// Below ~4 rows per bin the all-feature build + subtraction
		// costs more than per-feature range-limited fills (measured on
		// the paper-scale tuned benchmark).
		siblingMin: 4 * maxNB,
		rows:       make([]int, 0, nRows),
		scratch:    make([]int, nRows),
		feats:      feats,
		fhist:      make([]float64, histCell*maxNB),
		recip:      recip,
	}
}

// build grows one tree on the bootstrap rows idx (dataset row ids, with
// multiplicity, in draw order).
func (b *binnedTreeBuilder) build(idx []int, rng *binnedRNG) *tree {
	// A builder is reused across trees and sampleFeats shuffles feats in
	// place: restart from the identity so a tree's feature sampling
	// depends on its own RNG only, not on which trees this builder grew
	// before it.
	for f := range b.feats {
		b.feats[f] = f
	}
	b.rows = append(b.rows[:0], idx...)
	b.t = &tree{gains: make([]float64, b.m)}
	b.rng = rng
	var sum, sq float64
	for _, r := range idx {
		yv := b.y[r]
		sum += yv
		sq += yv * yv
	}
	b.grow(0, len(idx), 0, sum, sq, nil)
	return b.t
}

// sampleFeats partially Fisher-Yates-shuffles the persistent feature
// permutation and returns its first mtry entries — per-node feature
// sampling without the rand.Perm allocation.
func (b *binnedTreeBuilder) sampleFeats() []int {
	fs := b.feats
	mtry := b.cfg.mtry
	for i := 0; i < mtry && i < b.m-1; i++ {
		j := i + b.rng.intn(b.m-i)
		fs[i], fs[j] = fs[j], fs[i]
	}
	return fs[:mtry]
}

// grow appends the subtree over the segment [lo, hi) of the node row
// list and returns its node index. sum and sq are the segment's label
// statistics, threaded down from the parent so no node rescans its rows
// for them. hist is the node's all-feature histogram when the sibling
// chain reaches it (nil otherwise); grow owns it and either hands it to
// a child or releases it.
func (b *binnedTreeBuilder) grow(lo, hi, depth int, sum, sq float64, hist []float64) int32 {
	t, cfg := b.t, b.cfg
	n := float64(hi - lo)
	mean := sum / n
	variance := sq/n - mean*mean
	if hi-lo < 2*cfg.minLeaf || variance < 1e-12 ||
		(cfg.maxDepth > 0 && depth >= cfg.maxDepth) {
		b.releaseHist(hist)
		return t.leaf(mean)
	}

	feats := b.sampleFeats()
	if hist == nil && b.siblingOK && hi-lo >= b.siblingMin {
		hist = b.allocHist()
		b.buildHist(lo, hi, hist)
	}
	var best splitCand
	if hist != nil {
		for _, f := range feats {
			cells := hist[f*b.stride:]
			b.sweepCells(f, cells, 0, b.nb[f]-1, hi-lo, sum, &best)
		}
	} else {
		for _, f := range feats {
			b.fillSweepZero(f, lo, hi, sum, &best)
		}
	}
	if !best.ok {
		b.releaseHist(hist)
		return t.leaf(mean)
	}
	t.gains[best.feat] += best.gain

	// Stable-partition the node rows on the winning bin cut in one pass:
	// the sweep already counted the left half, so lefts and rights land
	// directly in their scratch segments. The left child's Σy² (for its
	// pure-node leaf check) rides along.
	code := b.codes[best.feat]
	cut := uint8(best.cut)
	nl := best.lcount
	seg, scratch := b.rows[lo:hi], b.scratch
	p, q := 0, nl
	var lSq float64
	for _, r := range seg {
		if code[r] <= cut {
			scratch[p] = r
			p++
			yv := b.y[r]
			lSq += yv * yv
		} else {
			scratch[q] = r
			q++
		}
	}
	copy(seg, scratch[:len(seg)])

	lSum := best.lsum
	rSum, rSq := sum-lSum, sq-lSq
	var lHist, rHist []float64
	if hist != nil {
		lHist, rHist = b.childHists(lo, lo+nl, hi, depth, hist)
	}
	self := len(t.nodes)
	t.nodes = append(t.nodes, flattree.Node{Feature: int32(best.feat), Split: b.bins.Edge(best.feat, best.cut)})
	l := b.grow(lo, lo+nl, depth+1, lSum, lSq, lHist)
	r := b.grow(lo+nl, hi, depth+1, rSum, rSq, rHist)
	t.nodes[self].Left, t.nodes[self].Right = l, r
	return int32(self)
}

// fillSweepZero runs one sampled feature through the single-feature
// buffer: accumulate the node's histogram while building an occupancy
// bitmask, then sweep only the occupied bins in ascending order and
// re-zero each cell as it is consumed — one fused pass whose cost
// scales with the node's rows and occupied bins, not the bin budget.
// Deep nodes (few rows scattered over a wide bin range) skip the empty
// cells entirely instead of branching past them.
func (b *binnedTreeBuilder) fillSweepZero(f, lo, hi int, total float64, best *splitCand) {
	code := b.codes[f]
	cells := b.fhist
	var mask [(dataset.MaxBins + 63) / 64]uint64
	for _, r := range b.rows[lo:hi] {
		c := int(code[r])
		mask[c>>6] |= 1 << (c & 63)
		cc := histCell * c
		cells[cc]++
		cells[cc+1] += b.y[r]
	}

	nTotal := hi - lo
	minLeaf := b.cfg.minLeaf
	recip := b.recip
	parent := total * total * recip[nTotal]
	var lc int
	var ls float64
	for w := 0; w < len(mask); w++ {
		bm := mask[w]
		for bm != 0 {
			c := w<<6 + bits.TrailingZeros64(bm)
			bm &= bm - 1
			cc := histCell * c
			lc += int(cells[cc])
			ls += cells[cc+1]
			cells[cc], cells[cc+1] = 0, 0
			nl := lc
			nr := nTotal - lc
			if nl < minLeaf || nr < minLeaf {
				continue
			}
			rs := total - ls
			g := ls*ls*recip[nl] + rs*rs*recip[nr] - parent
			if g > best.gain+1e-12 {
				*best = splitCand{feat: f, cut: c, lcount: nl, gain: g, lsum: ls, ok: true}
			}
		}
	}
}

// sweepCells scans the cuts after bins [b0, b1) of feature f (cells in
// histCell layout), updating best. An empty bin's cut induces the same
// partition as the previous one, so it is skipped.
func (b *binnedTreeBuilder) sweepCells(f int, cells []float64, b0, b1, nTotal int, total float64, best *splitCand) {
	minLeaf := b.cfg.minLeaf
	recip := b.recip
	parent := total * total * recip[nTotal]
	var lc int
	var ls float64
	for c := b0; c < b1; c++ {
		cnt := cells[histCell*c]
		if cnt == 0 {
			continue
		}
		lc += int(cnt)
		ls += cells[histCell*c+1]
		nl := lc
		nr := nTotal - lc
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rs := total - ls
		g := ls*ls*recip[nl] + rs*rs*recip[nr] - parent
		if g > best.gain+1e-12 {
			*best = splitCand{feat: f, cut: c, lcount: nl, gain: g, lsum: ls, ok: true}
		}
	}
}

// childHists derives the children's all-feature histograms from the
// parent's after a split at [lo, mid, hi): the smaller child's is built
// from its rows, the larger child's is the parent's minus the smaller's
// (in place — the parent histogram is consumed). Children too small to
// carry the sibling chain (they are cheaper on the direct path, or
// guaranteed leaves) get nil.
func (b *binnedTreeBuilder) childHists(lo, mid, hi, depth int, parent []float64) (lHist, rHist []float64) {
	cfg := b.cfg
	need := func(cnt int) bool {
		return cnt >= b.siblingMin && cnt >= 2*cfg.minLeaf &&
			(cfg.maxDepth == 0 || depth+1 < cfg.maxDepth)
	}
	needL, needR := need(mid-lo), need(hi-mid)
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
		for i, v := range small {
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

// buildHist accumulates the all-feature histogram of the rows in
// [lo, hi) into hist, which must be zeroed.
func (b *binnedTreeBuilder) buildHist(lo, hi int, hist []float64) {
	stride := b.stride
	for _, r := range b.rows[lo:hi] {
		yv := b.y[r]
		for f := 0; f < b.m; f++ {
			c := f*stride + histCell*int(b.codes[f][r])
			hist[c]++
			hist[c+1] += yv
		}
	}
}

func (b *binnedTreeBuilder) allocHist() []float64 {
	if k := len(b.free); k > 0 {
		h := b.free[k-1]
		b.free = b.free[:k-1]
		b.zeroHist(h)
		return h
	}
	return make([]float64, b.m*b.stride)
}

func (b *binnedTreeBuilder) zeroHist(h []float64) {
	for i := range h {
		h[i] = 0
	}
}

func (b *binnedTreeBuilder) releaseHist(h []float64) {
	if h != nil {
		b.free = append(b.free, h)
	}
}

// TunedTrainerBinned is TunedTrainer on the histogram-binned fast path:
// the same deduplicated mtry grid, but every candidate trains binned at
// the given bin budget and the tuner's shared-fold path reuses one
// quantization of the parent dataset across all fold × candidate cells.
func TunedTrainerBinned(m, bins int) metamodel.Trainer {
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
		grid = append(grid, &BinnedTrainer{Trainer: Trainer{MTry: c}, Bins: bins})
	}
	return &metamodel.Tuned{Family: "rf", Grid: grid}
}
