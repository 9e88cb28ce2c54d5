package flattree

import "math"

// labelBlock is how many trees LabelInto sums between settle checks.
const labelBlock = 8

// restBound bounds the trees after one block of LabelInto at a given
// scale: lo and hi are float sums of each later tree's least and
// greatest scaled leaf, mag the float sum of the larger of their
// magnitudes.
type restBound struct{ lo, hi, mag float64 }

// LabelInto sets dst[i] to the hard label of the sum SumInto computes
// for pts[i] with the same (init, scale): 1 when s > 0 if margin (gbt's
// log-odds margin), 1 when s/len(Roots) > 0.5 otherwise (rf's mean
// vote), else 0. Those are the owners' own float comparisons, so for
// every point, NaN sums (label 0) included, LabelInto equals SumInto
// followed by the owner's threshold.
//
// # Early exit
//
// The trees are summed in blocks of labelBlock, in index order, by the
// lockstep descent SumInto runs. After each block a point whose label
// the remaining trees can no longer change is labeled and dropped; the
// undecided points are compacted to the front of the scratch buffers
// and alone descend the next block.
//
// # Why the exit is exact
//
// Let p be a point's partial sum after a block (bit for bit SumInto's
// after as many trees) and let k ≤ T = len(Roots) trees remain.
// SumInto goes on with s ← fl(s + a_j), where a_j = fl(scale·v_j) and
// v_j is the leaf tree j routes the point to. Float multiplication is
// monotone in v for a fixed scale, so a_j lies between the scaled leaf
// min and max of tree j: lo_j ≤ a_j ≤ hi_j, and |a_j| ≤ m_j =
// max(|lo_j|, |hi_j|). Float addition is monotone in each argument and,
// short of overflow, fl(x+y) = (x+y)(1+δ) with |δ| ≤ u = 2^-53 (a
// subnormal sum is exact), so the recursive-summation bound gives
//
//	p + Σlo_j − γ_k·E ≤ s ≤ p + Σhi_j + γ_k·E,
//	γ_k = ku/(1−ku),  E = |p| + Σm_j.
//
// The kernel holds restBound's float sums L, H and M of lo_j, hi_j and
// m_j, each within γ_k·E of its real sum, and tests
//
//	up = (p + H) + slack,  dn = (p + L) − slack,
//	slack = (|p| + M) · 4(T+1)u.
//
// The rounding of H and of the two additions moves up by at most
// (γ_k + 4u)·E, so up − s ≥ slack − (2γ_k + 4u)·E. The slack's own two
// roundings and M's cost it at most a factor 1 − γ_{k+2}, so slack ≥
// 4(k+1)u·(1 − γ_{k+2})·E, which exceeds (2γ_k + 5u)·E for every
// k ≥ 1 below 2^40. Hence dn ≤ s ≤ up. The owner's cut fl(x/div) > thr
// is monotone in x, so if up is on the 0 side the label is 0, and if
// dn is on the 1 side it is 1, whichever leaves the point would reach.
// The spare u·E also covers a compiler that fuses SumInto's
// multiply-add: the unrounded product exceeds hi_j by at most u·m_j.
//
// The argument needs no overflow and a normal slack, so an exit also
// requires 2^-900 < |p| + M < 2^900. A NaN or infinite partial sum,
// leaf, scale or init fails that test (an infinite or NaN bound makes M
// infinite or NaN), so non-finite values disable exits rather than
// break them.
func (f *Table) LabelInto(dst []float64, pts [][]float64, dim int, init, scale float64, margin bool) {
	div, thr := float64(len(f.Roots)), 0.5
	if margin {
		div, thr = 1, 0
	}
	s := scratchPool.Get().(*scratch)
	s.keys = encodePoints(s.keys, pts, dim)
	s.sums = resize(s.sums, len(pts))
	s.rows = resize(s.rows, len(pts))
	s.rest = f.restBounds(s.rest, scale)
	keys, sums, rows := s.keys, s.sums, s.rows
	for i := range sums {
		sums[i], rows[i] = init, int32(i)
	}
	slackPerMag := float64(len(f.Roots)+1) * 0x1p-51
	live := len(pts)
	for t := 0; live > 0; t += labelBlock {
		end := min(t+labelBlock, len(f.Roots))
		f.accumulate(sums[:live], keys[:live*dim], dim, f.Roots[t:end], scale)
		if end == len(f.Roots) {
			break
		}
		rest := s.rest[t/labelBlock]
		kept := 0
		for i, p := range sums[:live] {
			if mag := math.Abs(p) + rest.mag; mag > 0x1p-900 && mag < 0x1p900 {
				slack := mag * slackPerMag
				if up := p + rest.hi + slack; !(up/div > thr) {
					dst[rows[i]] = 0
					continue
				}
				if dn := p + rest.lo - slack; dn/div > thr {
					dst[rows[i]] = 1
					continue
				}
			}
			if kept != i {
				copy(keys[kept*dim:(kept+1)*dim], keys[i*dim:(i+1)*dim])
				sums[kept], rows[kept] = p, rows[i]
			}
			kept++
		}
		live = kept
	}
	for i, p := range sums[:live] {
		if p/div > thr {
			dst[rows[i]] = 1
		} else {
			dst[rows[i]] = 0
		}
	}
	scratchPool.Put(s)
}

// restBounds returns, for every block of LabelInto but the last, the
// bounds of the trees after it at the given scale (index t/labelBlock
// for the block starting at tree t).
func (f *Table) restBounds(buf []restBound, scale float64) []restBound {
	n := len(f.Roots)
	buf = resize(buf, (n+labelBlock-1)/labelBlock)
	var r restBound
	for t := n - 1; t >= 0; t-- {
		if t%labelBlock == labelBlock-1 && t+1 < n {
			buf[t/labelBlock] = r // trees t+1 .. n-1
		}
		lo, hi := scale*f.leafMin[t], scale*f.leafMax[t]
		if lo > hi {
			lo, hi = hi, lo
		}
		r.lo += lo
		r.hi += hi
		r.mag += math.Max(math.Abs(lo), math.Abs(hi))
	}
	return buf
}

// resize returns s with length n, reallocating only when it is too
// small.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
