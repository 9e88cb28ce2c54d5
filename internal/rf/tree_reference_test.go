package rf

import (
	"math/rand"
	"sort"

	"github.com/reds-go/reds/internal/dataset"
)

// This file keeps the original per-node sorting tree induction as the
// test oracle of the fast path. The fast path in tree.go presorts every
// feature once per tree and sweeps splits with running prefix sums;
// differential tests assert both paths grow identical trees.

// trainReference is Trainer.Train with the reference tree induction:
// the same shape, per-tree seeds and bootstraps, trees grown serially.
// It grows the fast path's trees as long as no two distinct rows share
// a feature value — bootstrap-duplicated rows are fine; across
// genuinely tied rows the reference's unstable sort visits them in a
// different order, so partial sums (and with them exact split
// tie-breaking) can differ in the last float64 bit.
func trainReference(t *Trainer, d *dataset.Dataset, rng *rand.Rand) *Forest {
	cfg, seeds := t.plan(d.M(), rng)
	forest := &Forest{trees: make([]*tree, len(seeds))}
	idx := make([]int, d.N())
	for ti, seed := range seeds {
		local := rand.New(rand.NewSource(seed))
		for k := range idx {
			idx[k] = local.Intn(d.N())
		}
		forest.trees[ti] = buildTreeReference(d.X, d.Y, idx, cfg, local)
	}
	return forest
}

// buildTreeReference grows a tree on the rows idx of (x, y) by recursive
// greedy variance-reduction splitting, sorting each candidate feature at
// every node.
func buildTreeReference(x [][]float64, y []float64, idx []int, cfg treeConfig, rng *rand.Rand) *tree {
	t := &tree{gains: make([]float64, len(x[0]))}
	t.growReference(x, y, idx, cfg, rng, 0)
	return t
}

// growReference appends the subtree over idx and returns its node index.
func (t *tree) growReference(x [][]float64, y []float64, idx []int, cfg treeConfig, rng *rand.Rand, depth int) int {
	sum, sq := 0.0, 0.0
	for _, i := range idx {
		sum += y[i]
		sq += y[i] * y[i]
	}
	n := float64(len(idx))
	mean := sum / n
	// Pure node, too small to split, or depth cap reached: make a leaf.
	variance := sq/n - mean*mean
	if len(idx) < 2*cfg.minLeaf || variance < 1e-12 ||
		(cfg.maxDepth > 0 && depth >= cfg.maxDepth) {
		return t.leaf(mean)
	}

	feat, split, gain, ok := bestSplitReference(x, y, idx, cfg, rng, sum)
	if !ok {
		return t.leaf(mean)
	}
	t.gains[feat] += gain

	var leftIdx, rightIdx []int
	for _, i := range idx {
		if x[i][feat] <= split {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return t.leaf(mean)
	}

	self := len(t.nodes)
	t.nodes = append(t.nodes, treeNode{feature: feat, split: split})
	l := t.growReference(x, y, leftIdx, cfg, rng, depth+1)
	r := t.growReference(x, y, rightIdx, cfg, rng, depth+1)
	t.nodes[self].left = l
	t.nodes[self].right = r
	return self
}

// bestSplitReference finds the (feature, threshold) pair maximizing the
// variance reduction over mtry randomly chosen features by sorting the
// node's rows along each candidate feature — O(n log n) per node-feature.
// It returns ok=false when no valid split exists.
func bestSplitReference(x [][]float64, y []float64, idx []int, cfg treeConfig, rng *rand.Rand, totalSum float64) (feat int, split, gain float64, ok bool) {
	m := len(x[0])
	mtry := cfg.mtry
	if mtry <= 0 || mtry > m {
		mtry = m
	}
	feats := rng.Perm(m)[:mtry]

	n := len(idx)
	total := totalSum
	bestGain := 0.0

	order := make([]int, n)
	for _, f := range feats {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return x[order[a]][f] < x[order[b]][f] })
		// Scan split positions between distinct values.
		leftSum := 0.0
		for k := 0; k < n-1; k++ {
			i := order[k]
			leftSum += y[i]
			if x[order[k+1]][f] == x[i][f] {
				continue // not a valid cut point
			}
			nl := k + 1
			nr := n - nl
			if nl < cfg.minLeaf || nr < cfg.minLeaf {
				continue
			}
			rightSum := total - leftSum
			// Variance reduction is, up to constants, the gain in
			// sum-of-squares of child means.
			g := leftSum*leftSum/float64(nl) + rightSum*rightSum/float64(nr) - total*total/float64(n)
			if g > bestGain+1e-12 {
				bestGain = g
				feat = f
				split = (x[i][f] + x[order[k+1]][f]) / 2
				ok = true
			}
		}
	}
	return feat, split, bestGain, ok
}
