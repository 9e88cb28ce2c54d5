package dataset

import (
	"math"
	"sort"
)

// Columns returns a column-major view of X: Columns()[j][i] == X[i][j].
// It is built lazily on first use, cached on the dataset, and safe for
// concurrent use. The hot loops of split finding and peeling scan one
// feature at a time; the columnar layout turns those scans into
// sequential walks over a single contiguous slice instead of strided
// loads across every row.
//
// The view (and the dataset) must not be mutated after the first call.
func (d *Dataset) Columns() [][]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.columnsLocked()
}

func (d *Dataset) columnsLocked() [][]float64 {
	if d.cols != nil {
		return d.cols
	}
	n, m := d.N(), d.M()
	if m == 0 {
		return nil
	}
	backing := make([]float64, n*m)
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = backing[j*n : (j+1)*n : (j+1)*n]
	}
	for i, row := range d.X {
		for j, v := range row {
			cols[j][i] = v
		}
	}
	d.cols = cols
	return cols
}

// SortedOrders returns, for every input column j, the row indices sorted
// ascending by X[i][j], with ties broken by row index so the order is a
// deterministic total order. NaN sorts after every number, +Inf
// included, where flattree's orderKey puts it; NaNs keep row order among
// themselves. It is computed once — O(M·N log N) — cached
// on the dataset and shared by every consumer (each random-forest tree,
// each boosting round, each PRIM run), which is what lets the split and
// peel loops drop their per-node / per-step sorts.
//
// Callers must not mutate the returned slices; derive copies instead.
func (d *Dataset) SortedOrders() [][]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sortedOrdersLocked()
}

func (d *Dataset) sortedOrdersLocked() [][]int {
	if d.ords != nil {
		return d.ords
	}
	n, m := d.N(), d.M()
	if m == 0 {
		return nil
	}
	cols := d.columnsLocked()
	backing := make([]int, n*m)
	ords := make([][]int, m)
	for j := range ords {
		ord := backing[j*n : (j+1)*n : (j+1)*n]
		for i := range ord {
			ord[i] = i
		}
		col := cols[j]
		sort.Slice(ord, func(a, b int) bool {
			va, vb := col[ord[a]], col[ord[b]]
			switch {
			case va < vb:
				return true
			case va > vb:
				return false
			}
			// Equal, or at least one NaN, which no comparison orders.
			if an, bn := math.IsNaN(va), math.IsNaN(vb); an != bn {
				return bn
			}
			return ord[a] < ord[b]
		})
		ords[j] = ord
	}
	d.ords = ords
	return ords
}

// invalidate drops the cached columnar views; callers must hold no
// reference to previously returned views. Used when a dataset's contents
// are replaced wholesale (JSON decode into a reused receiver).
func (d *Dataset) invalidate() {
	d.mu.Lock()
	d.cols, d.ords, d.bins = nil, nil, nil
	d.mu.Unlock()
}

// StablePartition reorders the row-index segment seg so rows with goLeft
// set come first, preserving relative order on both sides, and returns
// the left count. The left half is compacted in place (writes trail
// reads); the right half spills into scratch — which must be at least
// len(seg) long — and is copied back.
//
// This is the kernel that keeps per-feature sorted orders (derived from
// SortedOrders) sorted through recursive tree splits: partitioning a
// sorted list stably by the split predicate leaves both halves sorted.
func StablePartition(seg []int, goLeft []bool, scratch []int) int {
	nl, nr := 0, 0
	for _, r := range seg {
		if goLeft[r] {
			seg[nl] = r
			nl++
		} else {
			scratch[nr] = r
			nr++
		}
	}
	copy(seg[nl:], scratch[:nr])
	return nl
}
