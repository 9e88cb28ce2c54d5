package dataset

import (
	"math"
	"sort"
)

// referenceSortedOrders is the comparison sort SortedOrders ran before
// its radix sort, kept as the oracle the differential tests hold it to:
// per column, row indices ascending by value, ties (-0 and +0 included)
// broken by row index, and NaN after every number, +Inf included, with
// NaNs in row order. It reads d.X only, so it neither builds nor reads
// the dataset's cached views.
func referenceSortedOrders(d *Dataset) [][]int {
	n, m := d.N(), d.M()
	if m == 0 {
		return nil
	}
	ords := make([][]int, m)
	for j := range ords {
		ord := make([]int, n)
		for i := range ord {
			ord[i] = i
		}
		sort.Slice(ord, func(a, b int) bool {
			va, vb := d.X[ord[a]][j], d.X[ord[b]][j]
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
	return ords
}
