// Package rf implements a random forest of CART regression trees over
// binary (or probabilistic) labels — the "f" metamodel of the paper. Mean
// aggregation over trees yields the probability estimate f_am(x) that
// Algorithm 4 thresholds or, in the "p" variant, uses directly.
//
// Tree induction runs on a columnar fast path. Exact trees grow on
// dataset's node lists (dataset.Nodes): each tree's bootstrap expands
// the shared sorted orders (dataset.SortedOrders, computed once per
// dataset) by its row counts, and every split partitions them stably,
// so finding a node's best split is one prefix-sum sweep per candidate
// feature, O(n) instead of the O(n log n) sort of the reference
// implementation in tree_reference_test.go. Binned trees (binned.go)
// sweep bin histograms (dataset.Hist) and split the same node lists on
// bin cuts. Each builder here owns only its gain sweep, its stop rules
// and, in binned trees, the single-feature direct mode.
package rf

import (
	"math/rand"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
)

// treeConfig controls tree induction.
type treeConfig struct {
	mtry     int // features considered per split
	minLeaf  int // minimum examples per leaf
	maxDepth int // 0 = unlimited
}

// treeBuilder grows trees over a fixed dataset from presorted feature
// orders. One builder serves one worker goroutine: its node lists are
// reused across the trees that worker grows, so steady-state tree
// induction allocates only the tree itself.
type treeBuilder struct {
	cols  [][]float64 // columnar view: cols[j][row]
	y     []float64
	cfg   treeConfig
	nodes *dataset.Nodes

	t   flattree.Tree
	rng *rand.Rand
}

// build grows one tree on the bootstrap rows idx (N dataset row ids,
// with multiplicity, in draw order).
func (b *treeBuilder) build(idx []int, rng *rand.Rand) flattree.Tree {
	b.nodes.Bootstrap(idx)
	b.t = nil
	b.rng = rng
	b.grow(0, len(idx), 0)
	return b.t
}

// grow appends the subtree over the segment [lo, hi) of the node lists
// and returns its node index.
func (b *treeBuilder) grow(lo, hi, depth int) int32 {
	cfg, y := b.cfg, b.y
	sum, sq := 0.0, 0.0
	for _, i := range b.nodes.Rows[lo:hi] {
		sum += y[i]
		sq += y[i] * y[i]
	}
	n := float64(hi - lo)
	mean := sum / n
	// Pure node, too small to split, or depth cap reached: make a leaf.
	variance := sq/n - mean*mean
	if hi-lo < 2*cfg.minLeaf || variance < 1e-12 ||
		(cfg.maxDepth > 0 && depth >= cfg.maxDepth) {
		return b.t.Leaf(mean)
	}

	feat, split, ok := b.bestSplit(lo, hi, sum)
	if !ok {
		return b.t.Leaf(mean)
	}

	nl := b.nodes.Split(lo, hi, b.cols[feat], split, true)
	if nl == 0 || nl == hi-lo {
		return b.t.Leaf(mean)
	}

	self := len(b.t)
	b.t = append(b.t, flattree.Node{Feature: int32(feat), Split: split})
	l := b.grow(lo, lo+nl, depth+1)
	r := b.grow(lo+nl, hi, depth+1)
	b.t[self].Left, b.t[self].Right = l, r
	return int32(self)
}

// bestSplit finds the (feature, threshold) pair maximizing the variance
// reduction over mtry randomly chosen features. The node's rows are
// already sorted along every feature, so each candidate is a single
// prefix-sum sweep. It returns ok=false when no valid split exists.
func (b *treeBuilder) bestSplit(lo, hi int, totalSum float64) (feat int, split float64, ok bool) {
	m := len(b.cols)
	mtry := b.cfg.mtry
	if mtry <= 0 || mtry > m {
		mtry = m
	}
	feats := b.rng.Perm(m)[:mtry]

	n := hi - lo
	total := totalSum
	bestGain := 0.0
	y, orders := b.y, b.nodes.Orders

	for _, f := range feats {
		seg := orders[f][lo:hi]
		col := b.cols[f]
		// Scan split positions between distinct values.
		leftSum := 0.0
		for k := 0; k < n-1; k++ {
			i := seg[k]
			leftSum += y[i]
			if col[seg[k+1]] == col[i] {
				continue // not a valid cut point
			}
			nl := k + 1
			nr := n - nl
			if nl < b.cfg.minLeaf || nr < b.cfg.minLeaf {
				continue
			}
			rightSum := total - leftSum
			// Variance reduction is, up to constants, the gain in
			// sum-of-squares of child means.
			g := leftSum*leftSum/float64(nl) + rightSum*rightSum/float64(nr) - total*total/float64(n)
			if g > bestGain+1e-12 {
				bestGain = g
				feat = f
				split = (col[i] + col[seg[k+1]]) / 2
				ok = true
			}
		}
	}
	return feat, split, ok
}
