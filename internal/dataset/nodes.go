package dataset

// Nodes is the node bookkeeping of tree growth: a growing tree's rows,
// segmented by node, for the four tree builders of rf and gbt. Node
// [lo, hi) owns Rows[lo:hi] and, on the exact path, Orders[f][lo:hi]:
// the same rows ascending by feature f as SortedOrders orders them.
// Splitting a node partitions its segments stably in place, so each
// child is again one segment and every order stays sorted, which lets a
// node's split sweep read each feature in order without sorting — the
// attribute lists of SPRINT (Shafer et al., VLDB 1996) and the exact
// greedy search of XGBoost (Chen & Guestrin, KDD 2016). The binned path
// keeps no orders: it sweeps bin histograms (Hist) and splits on bin
// cuts. A Nodes serves one goroutine and is reused across its trees.
type Nodes struct {
	Rows   []int   // dataset row ids, repeats counted, segmented by node
	Orders [][]int // exact path: per feature, Rows ascending, segmented like Rows

	shared  [][]int // the dataset's SortedOrders, each tree's starting orders
	counts  []int   // per dataset row: its repeats in a bootstrap
	left    []bool  // per dataset row: its side at the split being applied
	scratch []int   // right-half spill buffer of the stable partition
}

// NewNodes returns node lists for trees of at most size root rows. On
// the exact path orders is the dataset's SortedOrders and size its row
// count; on the binned path orders is nil.
func NewNodes(size int, orders [][]int) *Nodes {
	nd := &Nodes{Rows: make([]int, 0, size), shared: orders, scratch: make([]int, size)}
	if orders != nil {
		nd.Orders = make([][]int, len(orders))
		for f := range nd.Orders {
			// Two slots of slack for expand's unconditional pair writes.
			nd.Orders[f] = make([]int, size+2)
		}
		nd.counts = make([]int, size)
		nd.left = make([]bool, size)
	}
	return nd
}

// Start begins a tree whose root holds rows, dataset row ids in the
// order the tree visits them. On the exact path rows must hold every
// dataset row once, and each order starts as a copy of SortedOrders'.
func (nd *Nodes) Start(rows []int) {
	nd.Rows = append(nd.Rows[:0], rows...)
	for f, ord := range nd.Orders {
		nd.Orders[f] = append(ord[:0], nd.shared[f]...)
	}
}

// Bootstrap is Start on the exact path for a bootstrap sample: rows
// holds dataset row ids drawn with repeats, and each order is
// SortedOrders' with every row repeated as often as rows holds it, an
// O(N) count per feature instead of a sort.
func (nd *Nodes) Bootstrap(rows []int) {
	nd.Rows = append(nd.Rows[:0], rows...)
	clear(nd.counts)
	for _, r := range rows {
		nd.counts[r]++
	}
	for f, ord := range nd.Orders {
		nd.Orders[f] = expand(ord[:cap(ord)], nd.shared[f], nd.counts)
	}
}

// expand writes the rows of order, each repeated counts[r] times, into
// ord and returns the written prefix. Every row is written twice and the
// cursor advances by its count, so the ~92% of rows drawn at most twice
// take no data-dependent branch; only higher counts loop. A write past
// the cursor is overwritten by the next row or lands in ord's two slots
// of slack past the counts' sum.
func expand(ord, order, counts []int) []int {
	w := 0
	for _, r := range order {
		c := counts[r]
		ord[w] = r
		ord[w+1] = r
		for k := 2; k < c; k++ {
			ord[w+k] = r
		}
		w += c
	}
	return ord[:w]
}

// Split stably splits node [lo, hi) on col[r] <= split, the exact
// path's predicate: the node's rows going left come first, each side in
// its prior order, and, when orders is set, every order is split the
// same way so both children stay sorted. It returns the left child's
// row count. The side is marked once per dataset row, so a row's
// bootstrap copies go together.
func (nd *Nodes) Split(lo, hi int, col []float64, split float64, orders bool) int {
	seg, left := nd.Rows[lo:hi], nd.left
	for _, r := range seg {
		left[r] = col[r] <= split
	}
	nl := StablePartition(seg, left, nd.scratch)
	if orders {
		for _, ord := range nd.Orders {
			StablePartition(ord[lo:hi], left, nd.scratch)
		}
	}
	return nl
}

// SplitCut stably splits node [lo, hi) of Rows on codes[r] <= cut, the
// binned path's predicate (Bins.ColumnCodes), and returns the left
// child's row count. It is Split on the cut's edge without the side
// marks, and it leaves the orders alone.
func (nd *Nodes) SplitCut(lo, hi int, codes []uint8, cut uint8) int {
	seg, scratch := nd.Rows[lo:hi], nd.scratch[:hi-lo]
	nl, nr := 0, 0
	for _, r := range seg {
		l := b2i(codes[r] <= cut)
		seg[nl] = r
		scratch[nr] = r
		nl += l
		nr += 1 - l
	}
	copy(seg[nl:], scratch[:nr])
	return nl
}

// StablePartition reorders the row-index segment seg so rows with goLeft
// set come first, preserving relative order on both sides, and returns
// the left count. The left half is compacted in place (writes trail
// reads); the right half spills into scratch — which must be at least
// len(seg) long — and is copied back.
//
// The loop has no data-dependent branch: every row is written to both
// sides and only the counter of its own side advances, so a balanced
// split costs no mispredictions. A stale write is overwritten by the
// next row of that side or lies past the side's final count.
func StablePartition(seg []int, goLeft []bool, scratch []int) int {
	scratch = scratch[:len(seg)]
	nl, nr := 0, 0
	for _, r := range seg {
		left := b2i(goLeft[r])
		seg[nl] = r
		scratch[nr] = r
		nl += left
		nr += 1 - left
	}
	copy(seg[nl:], scratch[:nr])
	return nl
}

// b2i is 1 for true and 0 for false; the compiler loads the bool's byte
// instead of jumping on it.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
