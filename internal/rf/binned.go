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
	// Each row adds (1, y) to its histogram cells: a count and a label sum.
	pairs := make([]float64, 2*d.N())
	for i, y := range d.Y {
		pairs[2*i], pairs[2*i+1] = 1, y
	}
	cfg, seeds := t.plan(d.M(), rng)
	trees := make([][]flattree.Node, len(seeds))
	builders := make([]*binnedTreeBuilder, len(seeds))
	idxs := make([][]int, len(seeds))
	par.For(len(seeds), func(w, ti int) {
		if builders[w] == nil {
			builders[w], idxs[w] = newBinnedTreeBuilder(bins.NewHist(pairs), d.Y, d.M(), nRows, cfg), make([]int, nRows)
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
	return &Forest{table: flattree.Compile(trees)}, nil
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

// splitCand accumulates the best bin cut seen so far during a sweep,
// together with the left child's label sum at that cut.
type splitCand struct {
	feat, cut int
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
//     all-feature histogram (dataset.Hist) is carried down the
//     recursion, and each split derives its children's by the sibling
//     step.
type binnedTreeBuilder struct {
	hists      *dataset.Hist // all-feature histograms of (1, y) pairs
	y          []float64
	m          int
	cfg        treeConfig
	siblingOK  bool // sampled features cover most of M
	siblingMin int  // minimum node rows for an all-feature histogram

	nodes *dataset.Nodes
	feats []int     // permutation buffer for per-node feature sampling
	fhist []float64 // direct mode single-feature buffer, kept zeroed
	recip []float64 // recip[k] = 1/k for node sizes, so sweeps multiply instead of divide

	t   flattree.Tree
	rng *binnedRNG
}

func newBinnedTreeBuilder(hists *dataset.Hist, y []float64, m, nRows int, cfg treeConfig) *binnedTreeBuilder {
	if cfg.mtry <= 0 || cfg.mtry > m {
		cfg.mtry = m
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
		hists:     hists,
		y:         y,
		m:         m,
		cfg:       cfg,
		siblingOK: 2*cfg.mtry > m,
		// Below ~4 rows per bin of the widest feature (two per histogram
		// slot) the all-feature build + subtraction costs more than
		// per-feature range-limited fills (measured on the paper-scale
		// tuned benchmark).
		siblingMin: 2 * hists.Stride(),
		nodes:      dataset.NewNodes(nRows, nil),
		feats:      feats,
		fhist:      make([]float64, hists.Stride()),
		recip:      recip,
	}
}

// build grows one tree on the bootstrap rows idx (dataset row ids, with
// multiplicity, in draw order).
func (b *binnedTreeBuilder) build(idx []int, rng *binnedRNG) flattree.Tree {
	// A builder is reused across trees and sampleFeats shuffles feats in
	// place: restart from the identity so a tree's feature sampling
	// depends on its own RNG only, not on which trees this builder grew
	// before it.
	for f := range b.feats {
		b.feats[f] = f
	}
	b.nodes.Start(idx)
	b.t = nil
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

// grow appends the subtree over the node [lo, hi) of the node lists
// and returns its node index. sum and sq are the segment's label
// statistics, threaded down from the parent so no node rescans its rows
// for them. hist is the node's all-feature histogram when the sibling
// chain reaches it (nil otherwise); grow owns it and either hands it to
// a child or releases it.
func (b *binnedTreeBuilder) grow(lo, hi, depth int, sum, sq float64, hist []float64) int32 {
	cfg := b.cfg
	n := float64(hi - lo)
	mean := sum / n
	variance := sq/n - mean*mean
	if hi-lo < 2*cfg.minLeaf || variance < 1e-12 ||
		(cfg.maxDepth > 0 && depth >= cfg.maxDepth) {
		b.hists.Put(hist)
		return b.t.Leaf(mean)
	}

	feats := b.sampleFeats()
	if hist == nil && b.siblingOK && hi-lo >= b.siblingMin {
		hist = b.hists.Get()
		b.hists.Fill(hist, b.nodes.Rows[lo:hi])
	}
	var best splitCand
	if hist != nil {
		for _, f := range feats {
			b.sweepCells(f, b.hists.Feature(hist, f), hi-lo, sum, &best)
		}
	} else {
		for _, f := range feats {
			b.fillSweepZero(f, lo, hi, sum, &best)
		}
	}
	if !best.ok {
		b.hists.Put(hist)
		return b.t.Leaf(mean)
	}

	// The left child's Σy² (for its pure-node leaf check) sums its rows
	// in their order.
	nl := b.nodes.SplitCut(lo, hi, b.hists.ColumnCodes(best.feat), uint8(best.cut))
	seg, y := b.nodes.Rows[lo:hi], b.y
	var lSq float64
	for _, r := range seg[:nl] {
		lSq += y[r] * y[r]
	}

	lSum := best.lsum
	rSum, rSq := sum-lSum, sq-lSq
	var lHist, rHist []float64
	if hist != nil {
		lHist, rHist = b.hists.Children(seg, nl, b.needHist(nl, depth), b.needHist(len(seg)-nl, depth), hist)
	}
	self := len(b.t)
	b.t = append(b.t, flattree.Node{Feature: int32(best.feat), Split: b.hists.Edge(best.feat, best.cut)})
	l := b.grow(lo, lo+nl, depth+1, lSum, lSq, lHist)
	r := b.grow(lo+nl, hi, depth+1, rSum, rSq, rHist)
	b.t[self].Left, b.t[self].Right = l, r
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
	code := b.hists.ColumnCodes(f)
	cells, y := b.fhist, b.y
	var mask [(dataset.MaxBins + 63) / 64]uint64
	for _, r := range b.nodes.Rows[lo:hi] {
		c := int(code[r])
		mask[c>>6] |= 1 << (c & 63)
		cc := 2 * c
		cells[cc]++
		cells[cc+1] += y[r]
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
			cc := 2 * c
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
				*best = splitCand{feat: f, cut: c, gain: g, lsum: ls, ok: true}
			}
		}
	}
}

// sweepCells scans the cuts after each bin but the last of feature f
// (cells in dataset.Hist's layout), updating best. An empty bin's cut
// induces the same partition as the previous one, so it is skipped.
func (b *binnedTreeBuilder) sweepCells(f int, cells []float64, nTotal int, total float64, best *splitCand) {
	minLeaf := b.cfg.minLeaf
	recip := b.recip
	parent := total * total * recip[nTotal]
	var lc int
	var ls float64
	for c := 0; c < len(cells)/2-1; c++ {
		cnt := cells[2*c]
		if cnt == 0 {
			continue
		}
		lc += int(cnt)
		ls += cells[2*c+1]
		nl := lc
		nr := nTotal - lc
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		rs := total - ls
		g := ls*ls*recip[nl] + rs*rs*recip[nr] - parent
		if g > best.gain+1e-12 {
			*best = splitCand{feat: f, cut: c, gain: g, lsum: ls, ok: true}
		}
	}
}

// needHist reports whether a child of cnt rows, one level below depth,
// carries the sibling chain. Smaller children are cheaper on the direct
// path, and the rest are guaranteed leaves.
func (b *binnedTreeBuilder) needHist(cnt, depth int) bool {
	cfg := b.cfg
	return cnt >= b.siblingMin && cnt >= 2*cfg.minLeaf &&
		(cfg.maxDepth == 0 || depth+1 < cfg.maxDepth)
}

// TunedTrainerBinned is TunedTrainer on the histogram-binned fast path:
// the same mtry candidates, but every one trains binned at the given bin
// budget and the tuner's shared-fold path reuses one quantization of the
// parent dataset across all fold × candidate cells.
func TunedTrainerBinned(m, bins int) metamodel.Trainer {
	tuned := &metamodel.Tuned{Family: "rf"}
	for _, c := range tuningGrid(m) {
		tuned.Grid = append(tuned.Grid, &BinnedTrainer{Trainer: c, Bins: bins})
	}
	return tuned
}
