package bi

// This file keeps the original per-candidate interval search as the
// test oracle of the fast path: every (box, dimension) pair re-derives
// point eligibility with an O(M) bound check per point. The fast path
// in bi.go precomputes a violation count per point once per beam box
// and reuses the tie-group buffer; differential tests assert both
// return identical intervals and WRAcc values.

import (
	"math"

	"github.com/reds-go/reds/internal/box"
	"github.com/reds-go/reds/internal/dataset"
)

// bestIntervalReference finds the WRAcc-optimal interval for dimension j
// of box cur (ignoring cur's existing bounds on j, per
// BestIntervalWRAcc). It returns ok = false when no point satisfies the
// other bounds. When the optimal run spans all eligible points the
// dimension is left unrestricted.
func bestIntervalReference(d *dataset.Dataset, order []int, cur *box.Box, j int, p0 float64) (*box.Box, bool) {
	// Build tie-groups over eligible points in ascending x_j order.
	var groups []group
	for _, i := range order {
		if !othersContain(cur, d.X[i], j) {
			continue
		}
		v := d.X[i][j]
		w := d.Y[i] - p0
		if len(groups) > 0 && groups[len(groups)-1].value == v {
			groups[len(groups)-1].sum += w
		} else {
			groups = append(groups, group{value: v, sum: w})
		}
	}
	if len(groups) == 0 {
		return nil, false
	}

	// Kadane over groups.
	bestSum := math.Inf(-1)
	bestStart, bestEnd := 0, 0
	curSum, curStart := 0.0, 0
	for g := range groups {
		curSum += groups[g].sum
		if curSum > bestSum {
			bestSum, bestStart, bestEnd = curSum, curStart, g
		}
		if curSum < 0 {
			curSum, curStart = 0, g+1
		}
	}

	nb := cur.Clone()
	if bestStart == 0 && bestEnd == len(groups)-1 {
		// The whole line is optimal: unrestrict the dimension.
		nb.Lo[j] = math.Inf(-1)
		nb.Hi[j] = math.Inf(1)
		return nb, true
	}
	// Bounds extend to the midpoint toward the neighboring excluded
	// group, or to infinity at the eligible extremes.
	if bestStart == 0 {
		nb.Lo[j] = math.Inf(-1)
	} else {
		nb.Lo[j] = (groups[bestStart-1].value + groups[bestStart].value) / 2
	}
	if bestEnd == len(groups)-1 {
		nb.Hi[j] = math.Inf(1)
	} else {
		nb.Hi[j] = (groups[bestEnd].value + groups[bestEnd+1].value) / 2
	}
	return nb, true
}

// othersContain reports whether x satisfies all bounds of b except
// dimension skip.
func othersContain(b *box.Box, x []float64, skip int) bool {
	for j, v := range x {
		if j == skip {
			continue
		}
		if v < b.Lo[j] || v > b.Hi[j] {
			return false
		}
	}
	return true
}
