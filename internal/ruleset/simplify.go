package ruleset

import "github.com/reds-go/reds/internal/flattree"

// coverCounts routes every selection point down the tree and counts
// per-node visits, with flattree.Descend's `x <= split` (NaN routes
// right).
func coverCounts(tree []flattree.Node, pts [][]float64) []float64 {
	c := make([]float64, len(tree))
	for _, x := range pts {
		n := 0
		for {
			c[n]++
			nd := &tree[n]
			if nd.Leaf {
				break
			}
			if x[nd.Feature] <= nd.Split {
				n = int(nd.Left)
			} else {
				n = int(nd.Right)
			}
		}
	}
	return c
}

// subtreeInfo aggregates a subtree's leaves for the merge decision.
type subtreeInfo struct {
	side       bool    // all leaves on one side of the boundary
	uniform    bool    // side is consistent across the subtree
	minV, maxV float64 // leaf value spread
	wsum, w    float64 // coverage-weighted leaf value sum / total coverage
	usum       float64 // unweighted leaf value sum (fallback weight)
	leaves     int
}

// simplifyTree collapses every subtree whose leaves all sit on the same
// side of the decision boundary and whose value spread is within eps
// into a single coverage-weighted leaf. The merge can change a covered
// point's value by at most eps but never its side — a convex
// combination of same-side values stays on that side — which is the
// argmax-preservation invariant the property tests enforce. eps = 0
// keeps only the lossless merges of exactly-equal leaves (pure leaves
// are common after training), cover weights come from the selection
// sample via coverCounts.
func simplifyTree(tree []flattree.Node, cover []float64, boundary, eps float64) []flattree.Node {
	// A first pass marks every node whose subtree collapses (leaves
	// included) with the value it collapses to; the second emits the
	// simplified tree in preorder, root at index 0.
	merged := make([]bool, len(tree))
	value := make([]float64, len(tree))
	var summarize func(idx int32) subtreeInfo
	summarize = func(idx int32) subtreeInfo {
		nd := &tree[idx]
		if nd.Leaf {
			merged[idx], value[idx] = true, nd.Value
			return subtreeInfo{
				side:    nd.Value > boundary,
				uniform: true,
				minV:    nd.Value, maxV: nd.Value,
				wsum: nd.Value * cover[idx], w: cover[idx],
				usum:   nd.Value,
				leaves: 1,
			}
		}
		li := summarize(nd.Left)
		ri := summarize(nd.Right)
		info := subtreeInfo{
			side:    li.side,
			uniform: li.uniform && ri.uniform && li.side == ri.side,
			minV:    li.minV, maxV: li.maxV,
			wsum: li.wsum + ri.wsum, w: li.w + ri.w,
			usum:   li.usum + ri.usum,
			leaves: li.leaves + ri.leaves,
		}
		if ri.minV < info.minV {
			info.minV = ri.minV
		}
		if ri.maxV > info.maxV {
			info.maxV = ri.maxV
		}
		if info.uniform && info.maxV-info.minV <= eps {
			v := info.usum / float64(info.leaves)
			if info.w > 0 {
				v = info.wsum / info.w
			}
			info.leaves = 1
			info.minV, info.maxV = v, v
			info.usum = v
			merged[idx], value[idx] = true, v
		}
		return info
	}
	summarize(0)
	var out []flattree.Node
	var emit func(idx int32) int32
	emit = func(idx int32) int32 {
		at := int32(len(out))
		if merged[idx] {
			out = append(out, flattree.Node{Leaf: true, Value: value[idx]})
			return at
		}
		nd := &tree[idx]
		out = append(out, flattree.Node{Feature: nd.Feature, Split: nd.Split})
		l := emit(nd.Left)
		r := emit(nd.Right)
		out[at].Left, out[at].Right = l, r
		return at
	}
	emit(0)
	return out
}

// countLeaves returns the number of leaves (= extractable rules) of a
// tree in source form.
func countLeaves(tree []flattree.Node) int {
	n := 0
	for i := range tree {
		if tree[i].Leaf {
			n++
		}
	}
	return n
}

// leafStats carries per-leaf coverage and parent-label agreement on
// the selection sample, keyed by node index of the simplified tree.
type leafStats struct {
	cover []float64
	agree []float64
}

// treeColumns descends every selection point through one simplified
// tree, returning the per-point leaf values (the selection scan's
// column for this tree) and the per-leaf coverage/agreement stats the
// export's confidence figures come from.
func treeColumns(tree []flattree.Node, pts [][]float64, parentLabels []float64, boundary float64) ([]float64, leafStats) {
	col := make([]float64, len(pts))
	st := leafStats{
		cover: make([]float64, len(tree)),
		agree: make([]float64, len(tree)),
	}
	for i, x := range pts {
		n := flattree.Descend(tree, x)
		v := tree[n].Value
		col[i] = v
		st.cover[n]++
		label := 0.0
		if v > boundary {
			label = 1
		}
		if label == parentLabels[i] {
			st.agree[n]++
		}
	}
	return col, st
}
