package prim

// This file keeps the original peel-candidate search as the test oracle
// of the fast path: a quickselect plus three full passes per dimension
// per peel step. The fast path in peel.go maintains per-dimension sorted
// orders across peel steps and evaluates candidates with prefix sums;
// differential tests assert both paths peel identical boxes.

import (
	"math"

	"github.com/reds-go/reds/internal/box"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/sd"
)

// discoverReference is Peeler.Discover with the reference candidate
// search, which re-selects the α-quantile from scratch every step. The
// two peel identical boxes (the differential tests cover ties,
// duplicated rows and fractional probability labels): the fast path
// accumulates candidate scores in sorted rather than row order, but the
// eps-tolerant candidate comparison in better() absorbs the last-bit
// float differences that reordering a sum can introduce, and all
// remaining tie-breaks are exact integers.
func discoverReference(p Peeler, train, val *dataset.Dataset) *sd.Result {
	alpha := p.Alpha
	if alpha == 0 {
		alpha = 0.05
	}
	mp := p.MinPoints
	if mp == 0 {
		mp = 20
	}
	cur := box.Full(train.M())
	trainIdx := allIndices(train.N())
	valIdx := allIndices(val.N())
	res := &sd.Result{}
	res.Steps = append(res.Steps, sd.Step{
		Box:   cur.Clone(),
		Train: statsOf(train, trainIdx),
		Val:   statsOf(val, valIdx),
	})
	scratch := make([]float64, train.N())
	for {
		cand, ok := bestPeelReference(train, trainIdx, alpha, scratch, p.Objective)
		if !ok {
			break
		}
		newTrainIdx := filterIdx(train, trainIdx, cand.dim, cand.lo, cand.hi)
		newValIdx := filterIdx(val, valIdx, cand.dim, cand.lo, cand.hi)
		if len(newTrainIdx) < mp || len(newValIdx) < mp {
			break
		}
		cur.Lo[cand.dim] = math.Max(cur.Lo[cand.dim], cand.lo)
		cur.Hi[cand.dim] = math.Min(cur.Hi[cand.dim], cand.hi)
		trainIdx, valIdx = newTrainIdx, newValIdx
		res.Steps = append(res.Steps, sd.Step{
			Box:   cur.Clone(),
			Train: statsOf(train, trainIdx),
			Val:   statsOf(val, valIdx),
		})
	}
	if p.Paste {
		pasteLoop(res, train, val, alpha)
	}
	res.FinalIndex = selectFinal(res.Steps)
	return res
}

// filterIdx keeps the indices whose value in dim lies within [lo, hi].
func filterIdx(d *dataset.Dataset, idx []int, dim int, lo, hi float64) []int {
	out := idx[:0:0]
	for _, i := range idx {
		v := d.X[i][dim]
		if v >= lo && v <= hi {
			out = append(out, i)
		}
	}
	return out
}

// bestPeelReference evaluates the 2M candidate peels (Step 3 of
// Algorithm 1) and returns the one maximizing the objective. ok is false
// when no candidate removes at least one but not all points.
func bestPeelReference(d *dataset.Dataset, idx []int, alpha float64, scratch []float64, obj Objective) (peelCand, bool) {
	n := len(idx)
	if n < 2 {
		return peelCand{}, false
	}
	k := int(alpha * float64(n))
	if k < 1 {
		k = 1
	}
	var total float64
	for _, i := range idx {
		total += d.Y[i]
	}

	best := peelCand{mean: math.Inf(-1)}
	found := false
	for j := 0; j < d.M(); j++ {
		vals := scratch[:n]
		for t, i := range idx {
			vals[t] = d.X[i][j]
		}
		// Low-side peel: remove all points with value <= the k-th
		// smallest (ties removed together so the peel always makes
		// progress).
		tLow := kthSmallest(vals, k)
		if lowCand, ok := evalPeel(d, idx, j, tLow, true, total, n, obj); ok {
			lowCand.lo, lowCand.hi = boundAfterPeel(d, idx, j, tLow, true), math.Inf(1)
			if better(lowCand, best) {
				best, found = lowCand, true
			}
		}
		// High-side peel: remove all points with value >= the k-th
		// largest.
		for t, i := range idx {
			vals[t] = d.X[i][j]
		}
		tHigh := kthLargest(vals, k)
		if highCand, ok := evalPeel(d, idx, j, tHigh, false, total, n, obj); ok {
			highCand.lo, highCand.hi = math.Inf(-1), boundAfterPeel(d, idx, j, tHigh, false)
			if better(highCand, best) {
				best, found = highCand, true
			}
		}
	}
	return best, found
}

// evalPeel computes the post-peel objective when removing values <= t
// (low) or >= t (high) in dim j.
func evalPeel(d *dataset.Dataset, idx []int, j int, t float64, low bool, total float64, n int, obj Objective) (peelCand, bool) {
	removed := 0
	var removedSum float64
	for _, i := range idx {
		v := d.X[i][j]
		if (low && v <= t) || (!low && v >= t) {
			removed++
			removedSum += d.Y[i]
		}
	}
	if removed == 0 || removed >= n {
		return peelCand{}, false
	}
	remain := n - removed
	score := (total - removedSum) / float64(remain)
	if obj == ObjectiveLift {
		score *= math.Sqrt(float64(remain))
	}
	return peelCand{
		dim:    j,
		mean:   score,
		remain: remain,
	}, true
}

// boundAfterPeel places the new bound at the midpoint between the last
// removed and the first remaining value — the least-biased cut for
// evaluating the box on fresh data — or at that remaining value itself
// where the midpoint does not separate the two (t = ±Inf, or adjacent
// floats), so the bound always removes the peeled points.
func boundAfterPeel(d *dataset.Dataset, idx []int, j int, t float64, low bool) float64 {
	if low {
		remainMin := math.Inf(1)
		for _, i := range idx {
			v := d.X[i][j]
			if v > t && v < remainMin {
				remainMin = v
			}
		}
		if mid := (t + remainMin) / 2; !(mid <= t) {
			return mid
		}
		return remainMin
	}
	remainMax := math.Inf(-1)
	for _, i := range idx {
		v := d.X[i][j]
		if v < t && v > remainMax {
			remainMax = v
		}
	}
	if mid := (t + remainMax) / 2; !(mid >= t) {
		return mid
	}
	return remainMax
}

// kthSmallest returns the k-th smallest value (1-based) of vals,
// reordering vals in place via quickselect.
func kthSmallest(vals []float64, k int) float64 {
	return quickselect(vals, k-1)
}

// kthLargest returns the k-th largest value (1-based) of vals.
func kthLargest(vals []float64, k int) float64 {
	return quickselect(vals, len(vals)-k)
}

// quickselect returns the element that would be at position pos in sorted
// order, using median-of-three partitioning.
func quickselect(vals []float64, pos int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		// Median-of-three pivot for resilience to sorted inputs.
		mid := lo + (hi-lo)/2
		if vals[mid] < vals[lo] {
			vals[mid], vals[lo] = vals[lo], vals[mid]
		}
		if vals[hi] < vals[lo] {
			vals[hi], vals[lo] = vals[lo], vals[hi]
		}
		if vals[hi] < vals[mid] {
			vals[hi], vals[mid] = vals[mid], vals[hi]
		}
		pivot := vals[mid]
		i, j := lo, hi
		for i <= j {
			for vals[i] < pivot {
				i++
			}
			for vals[j] > pivot {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		if pos <= j {
			hi = j
		} else if pos >= i {
			lo = i
		} else {
			break
		}
	}
	return vals[pos]
}
