package dataset

import (
	"math"

	"github.com/reds-go/reds/internal/par"
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
// deterministic total order. The order is that of OrderKey, the one
// flattree's compiled trees compare by: -0 ties with +0, and NaN sorts
// after every number, +Inf included, with NaNs in row order among
// themselves. It is computed once, by a stable radix sort in O(M·N)
// (or adopted from checked candidates, see NewPresorted), cached on
// the dataset and shared by every consumer (each random-forest
// tree, each boosting round, each PRIM run), which is what lets the split
// and peel loops drop their per-node / per-step sorts.
//
// Callers must not mutate the returned slices; derive copies instead.
func (d *Dataset) SortedOrders() [][]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sortedOrdersLocked()
}

// sortedOrdersLocked builds the sorted-order view on first use.
func (d *Dataset) sortedOrdersLocked() [][]int {
	if d.ords == nil {
		d.ords = d.orderColumnsLocked(nil)
	}
	return d.ords
}

// NewPresorted is New for points whose sorted orders the caller already
// has as candidates, as a Latin hypercube design does
// (sample.LatinHypercube.SampleOrdered). It builds the Columns and
// SortedOrders views at once. Column j adopts cand[j] only after
// isSortedOrder proves it is exactly the order SortedOrders defines;
// any other column, including one cand lacks, is radix-sorted. So
// SortedOrders is the same whatever the candidates. The dataset takes
// ownership of cand.
func NewPresorted(x [][]float64, y []float64, cand [][]int) (*Dataset, error) {
	d, err := New(x, y)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.ords = d.orderColumnsLocked(cand)
	d.mu.Unlock()
	return d, nil
}

// orderColumnsLocked builds the sorted-order view column by column: a
// column adopts its candidate when isSortedOrder accepts it and is
// radix-sorted otherwise. par.For runs the columns on the process's
// compute budget, and each of its goroutines makes its radix scratch
// on first need. Other callers wait on d.mu until the view is built.
func (d *Dataset) orderColumnsLocked(cand [][]int) [][]int {
	n, m := d.N(), d.M()
	if m == 0 {
		return nil
	}
	cols := d.columnsLocked()
	ords := make([][]int, m)
	sorters := make([]*radixSorter, m)
	par.For(m, func(w, j int) {
		if j < len(cand) && isSortedOrder(cand[j], cols[j]) {
			ords[j] = cand[j]
			return
		}
		if sorters[w] == nil {
			sorters[w] = &radixSorter{keys: make([]uint64, n), keysTmp: make([]uint64, n), ordTmp: make([]int, n)}
		}
		ords[j] = make([]int, n)
		sorters[w].sort(ords[j], cols[j])
	})
	return ords
}

// isSortedOrder reports whether ord is col's sorted order: every row
// index once, ascending by OrderKey, ties in row order. One pass
// checks that each entry is a row index and that the (key, row) pairs
// rise strictly. Strict rise makes the entries distinct, so len(col)
// distinct row indices are a permutation of the rows, and the order
// is the one total order SortedOrders defines.
func isSortedOrder(ord []int, col []float64) bool {
	n := len(col)
	if len(ord) != n {
		return false
	}
	var prevKey uint64
	prev := -1
	for _, i := range ord {
		if uint(i) >= uint(n) {
			return false
		}
		key := OrderKey(col[i])
		if prev >= 0 && (key < prevKey || key == prevKey && i <= prev) {
			return false
		}
		prevKey, prev = key, i
	}
	return true
}

// OrderKey maps a float64 to a uint64 whose unsigned order matches
// float order — the radix-sort float trick: flip every bit of
// negatives, only the sign bit of non-negatives. Adding +0.0 first
// collapses -0.0 onto +0.0 so the two zeros compare equal, exactly
// like a float compare; ±Inf encode to the extreme ordinary keys
// (OrderKey(+Inf) = 0xFFF0...). NaN of either sign and any payload maps
// to math.MaxUint64, above every number. SortedOrders sorts by it, and
// flattree encodes split thresholds and points with it, so presort and
// trees share one float order.
func OrderKey(v float64) uint64 {
	if v != v {
		return math.MaxUint64
	}
	u := math.Float64bits(v + 0)
	return u ^ (uint64(int64(u)>>63) | 0x8000_0000_0000_0000)
}

// radixSorter is one worker's scratch for sorting columns of n rows:
// the column's keys, plus the second key and index buffers the scatter
// passes alternate with.
type radixSorter struct {
	keys, keysTmp []uint64
	ordTmp        []int
}

// sort fills ord with the row indices of col in ascending OrderKey
// order, ties in row order: a least-significant-digit radix sort over
// 8-bit digits. One pass over the column builds the histograms of all
// eight digits; a digit on which every key agrees needs no pass. Each
// pass scatters stably, so rows of equal key keep their order from the
// identity start.
func (s *radixSorter) sort(ord []int, col []float64) {
	n := len(col)
	keys := s.keys
	var count [8][256]int
	for i, v := range col {
		k := OrderKey(v)
		keys[i] = k
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	var digits [8]int
	passes := 0
	for dg := range count {
		if count[dg][byte(keys[0]>>(8*dg))] != n {
			digits[passes] = dg
			passes++
		}
	}
	// The buffers swap after every pass; start from the one that makes
	// the last pass land in ord.
	src, dst := ord, s.ordTmp
	if passes%2 == 1 {
		src, dst = dst, src
	}
	for i := range src {
		src[i] = i
	}
	srcKeys, dstKeys := keys, s.keysTmp
	for _, dg := range digits[:passes] {
		next := &count[dg]
		sum := 0
		for b, c := range next {
			next[b] = sum
			sum += c
		}
		shift := uint(8 * dg)
		for i, k := range srcKeys {
			b := byte(k >> shift)
			at := next[b]
			next[b] = at + 1
			dstKeys[at] = k
			dst[at] = src[i]
		}
		src, dst = dst, src
		srcKeys, dstKeys = dstKeys, srcKeys
	}
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
