// Package flattree is the one tree format of the repository. rf and
// gbt grow their trees as slices of Node, compile them into one
// contiguous node table and keep only the table, which they evaluate
// with a branch-free lockstep descent; the distilled rule sets of
// internal/ruleset decode it and recompile their selected trees into
// one. Descend is the per-point walk over source-form trees: ruleset
// labels through it, and the batch differential tests of rf, gbt and
// ruleset hold the table's kernels to it.
package flattree

import (
	"math"
	"math/bits"
	"sync"

	"github.com/reds-go/reds/internal/dataset"
)

// Table is a compiled ensemble.
//
// # Layout
//
// The table interleaves two 8-byte words per node — node[2k] is the
// split threshold as an order-preserving integer key (dataset.OrderKey)
// and node[2k+1] packs feature<<32 | 2*left — so a descent step
// touches exactly one cache-line-adjacent pair with one bounds check.
// Node indices are premultiplied by 2 throughout (roots included).
// Internal nodes send x[feature] <= thresh to left and everything else
// to left+1: sibling pairs are always adjacent, which is what lets the
// packed word store only the left child. Leaves are self-looping
// (left == self) with an absorbing threshold key, so a descent that
// has reached its leaf stays put under further steps; Value[k] holds
// the leaf value. Each tree is laid out in level order from Roots[t],
// keeping the near-root levels — the ones every point visits — on a
// handful of cache lines.
//
// # Why the descent looks the way it does
//
// A taken/not-taken split on fresh data is close to a coin flip, so
// the obvious `if x > thresh` walk mispredicts about every other node
// and stalls for most of its cycles (measured: a branchy flat walk is
// no faster than the per-point one). With integer threshold keys the
// child select is pure arithmetic:
//
//	n = left(n) + 2*(key(x[feature(n)]) > tkey(n))
//
// with the comparison bit taken from the borrow of an unsigned
// subtract (bits.Sub64). Eight points descend each tree in lockstep so
// their dependent load chains overlap, and one settle check per level
// (all eight lanes self-looping) ends the descent. Trees iterate
// outer, points inner: the tree being descended stays L1-resident
// across the whole chunk, whereas a per-point walk streams the entire
// ensemble through the cache for every single point — its cost grows
// with ensemble size while the flat path's stays linear.
type Table struct {
	node  []uint64  // interleaved (tkey, feature<<32|2*left) pairs
	Value []float64 // leaf value per node (0 at internal nodes)
	Roots []int32   // premultiplied root index per tree
	// leafMin[t] and leafMax[t] bound tree t's leaf values (NaN when
	// one is NaN); LabelInto's early exit reads them.
	leafMin, leafMax []float64
}

// leafKey is the self-looping leaves' threshold key: the maximum
// uint64, which dataset.OrderKey gives NaN and no number. The gt bit is
// therefore 0 for every input, NaN included, and a settled lane can
// never escape its leaf. At an internal node NaN keys above every
// non-NaN threshold, so `x > thresh` holds and NaN goes right: the
// exact route of Descend, whose `x <= split` comparison is false for
// NaN.
const leafKey = math.MaxUint64

// Node is one source node handed to Compile: either an internal split
// (Feature/Split/Left/Right indices into the same slice) or a leaf
// (Leaf true, Value set).
type Node struct {
	Feature     int32
	Split       float64
	Left, Right int32
	Leaf        bool
	Value       float64
}

// Tree is one tree in source form while rf or gbt grows it: Nodes
// rooted at index 0, a value Compile takes as one of its trees.
type Tree []Node

// Leaf appends a leaf with value v and returns its index.
func (t *Tree) Leaf(v float64) int32 {
	*t = append(*t, Node{Leaf: true, Value: v})
	return int32(len(*t) - 1)
}

// Compile flattens the trees (each a slice of Nodes rooted at index 0)
// into one table.
func Compile(trees [][]Node) *Table {
	total := 0
	for _, t := range trees {
		total += len(t)
	}
	f := &Table{
		node:    make([]uint64, 0, 2*total),
		Value:   make([]float64, 0, total),
		Roots:   make([]int32, 0, len(trees)),
		leafMin: make([]float64, 0, len(trees)),
		leafMax: make([]float64, 0, len(trees)),
	}
	// Queue of (source node, flat slot); slots are reserved in sibling
	// pairs before their subtrees are visited, which yields the
	// level-order layout. reserve emits a self-looping leaf; interior
	// nodes overwrite the slot when they are dequeued. Slot indices are
	// premultiplied.
	type pending struct{ src, dst int32 }
	var queue []pending
	reserve := func() int32 {
		dst := int32(len(f.node))
		f.node = append(f.node, leafKey, uint64(dst))
		f.Value = append(f.Value, 0)
		return dst
	}
	for _, t := range trees {
		root := reserve()
		f.Roots = append(f.Roots, root)
		// math.Min and math.Max propagate NaN, so a NaN leaf makes both
		// bounds NaN.
		lo, hi := math.Inf(1), math.Inf(-1)
		queue = append(queue[:0], pending{0, root})
		for qi := 0; qi < len(queue); qi++ {
			p := queue[qi]
			nd := &t[p.src]
			if nd.Leaf {
				f.Value[p.dst>>1] = nd.Value
				lo, hi = math.Min(lo, nd.Value), math.Max(hi, nd.Value)
				continue
			}
			l := reserve()
			reserve() // right sibling, l+2 premultiplied
			f.node[p.dst] = dataset.OrderKey(nd.Split)
			f.node[p.dst+1] = uint64(nd.Feature)<<32 | uint64(l)
			queue = append(queue, pending{nd.Left, l}, pending{nd.Right, l + 2})
		}
		f.leafMin = append(f.leafMin, lo)
		f.leafMax = append(f.leafMax, hi)
	}
	return f
}

// MemoryBytes is the table's resident size, for cache accounting.
func (f *Table) MemoryBytes() int64 {
	return int64(len(f.node)+len(f.Value)+len(f.leafMin)+len(f.leafMax))*8 + int64(len(f.Roots))*4
}

// Descend returns the index of the leaf tree (a source-form tree rooted
// at index 0) routes x to: left when x[Feature] <= Split, else right,
// so NaN goes right. It is the per-point walk the compiled descent
// reproduces.
func Descend(tree []Node, x []float64) int {
	n := 0
	for !tree[n].Leaf {
		if x[tree[n].Feature] <= tree[n].Split {
			n = int(tree[n].Left)
		} else {
			n = int(tree[n].Right)
		}
	}
	return n
}

// scratch is one batch call's traversal buffers, pooled so concurrent
// batch workers reuse them instead of allocating per call.
type scratch struct {
	keys []uint64
	sums []float64
	rows []int32
	rest []restBound
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// encodePoints fills one flat buffer with dataset.OrderKey of every coordinate
// of the chunk, the integer mirror of pts the descent indexes.
func encodePoints(buf []uint64, pts [][]float64, dim int) []uint64 {
	buf = buf[:0]
	for _, x := range pts {
		for _, v := range x[:dim] {
			buf = append(buf, dataset.OrderKey(v))
		}
	}
	return buf
}

// step advances one descent by a level: one paired node load, one
// encoded-coordinate load, and the branch-free child select — the
// select bit is the borrow of tkey - xkey (1 iff x > thresh),
// premultiplied by 2 to pick the adjacent sibling.
func step(node []uint64, keys []uint64, base int, n int) int {
	meta := node[n+1]
	t := node[n]
	x := keys[base+int(meta>>32)]
	_, gt := bits.Sub64(t, x, 0)
	return int(uint32(meta)) + int(gt)<<1
}

// SumInto sets dst[i] = init and accumulates scale times every tree's
// leaf value for pts[i], tree by tree in index order: the float
// sequence s += scale·v_t over the leaves v_t Descend reaches, which
// rf runs at (init, scale) = (0, 1) and gbt at (base, eta). dim is the
// row width the descent may index.
func (f *Table) SumInto(dst []float64, pts [][]float64, dim int, init, scale float64) {
	for i := range dst {
		dst[i] = init
	}
	s := scratchPool.Get().(*scratch)
	s.keys = encodePoints(s.keys, pts, dim)
	f.accumulate(dst, s.keys, dim, f.Roots, scale)
	scratchPool.Put(s)
}

// accumulate adds scale times the leaf value of every tree in roots to
// sums[i], tree by tree in order, for the point encoded in
// keys[i*dim:(i+1)*dim].
func (f *Table) accumulate(sums []float64, keys []uint64, dim int, roots []int32, scale float64) {
	node, value := f.node, f.Value
	oct := len(sums) &^ 7
	for _, r := range roots {
		root := int(r)
		for i := 0; i < oct; i += 8 {
			b0 := i * dim
			b1, b2, b3 := b0+dim, b0+2*dim, b0+3*dim
			b4, b5, b6, b7 := b0+4*dim, b0+5*dim, b0+6*dim, b0+7*dim
			n0, n1, n2, n3 := root, root, root, root
			n4, n5, n6, n7 := root, root, root, root
			for {
				c0 := step(node, keys, b0, n0)
				c1 := step(node, keys, b1, n1)
				c2 := step(node, keys, b2, n2)
				c3 := step(node, keys, b3, n3)
				c4 := step(node, keys, b4, n4)
				c5 := step(node, keys, b5, n5)
				c6 := step(node, keys, b6, n6)
				c7 := step(node, keys, b7, n7)
				if (c0^n0)|(c1^n1)|(c2^n2)|(c3^n3)|(c4^n4)|(c5^n5)|(c6^n6)|(c7^n7) == 0 {
					break // all eight lanes sit on self-looping leaves
				}
				n0, n1, n2, n3 = c0, c1, c2, c3
				n4, n5, n6, n7 = c4, c5, c6, c7
			}
			sums[i] += scale * value[n0>>1]
			sums[i+1] += scale * value[n1>>1]
			sums[i+2] += scale * value[n2>>1]
			sums[i+3] += scale * value[n3>>1]
			sums[i+4] += scale * value[n4>>1]
			sums[i+5] += scale * value[n5>>1]
			sums[i+6] += scale * value[n6>>1]
			sums[i+7] += scale * value[n7>>1]
		}
		for i := oct; i < len(sums); i++ {
			bo := i * dim
			n := root
			for {
				c := step(node, keys, bo, n)
				if c == n {
					break
				}
				n = c
			}
			sums[i] += scale * value[n>>1]
		}
	}
}
