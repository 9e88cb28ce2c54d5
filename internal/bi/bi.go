// Package bi implements the BestInterval beam-search subgroup-discovery
// algorithm of Mampaey et al. 2012 (Algorithm 3 of the paper). A box is
// iteratively refined one dimension at a time; the optimal interval along
// a dimension under the WRAcc measure is found in linear time after
// sorting, because WRAcc(B) = (1/N)·Σ_{i∈B}(y_i − p₀) turns the search
// into a maximum-sum run of tie-groups (Kadane's algorithm).
//
// The hot loop runs on a columnar fast path: the per-dimension sorted
// orders come from dataset.SortedOrders (computed once, shared), point
// eligibility for every refinement dimension of a beam box is derived
// from a single violation-count pass instead of an O(M) bound check per
// (point, dimension) pair, and the tie-group buffer is reused across
// candidates. The reference implementation is kept in
// bi_reference_test.go and differential tests assert identical results.
package bi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/reds-go/reds/internal/box"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/par"
	"github.com/reds-go/reds/internal/sd"
)

// BI configures the beam search. The zero value uses beam size 1 and
// unlimited depth (m = M), the paper's "BI" default.
type BI struct {
	// BeamSize is bs, the number of candidate boxes kept per round
	// (default 1).
	BeamSize int
	// Depth is m, the maximum number of restricted inputs; 0 means all.
	Depth int
	// MaxIters caps the refinement rounds as a safety net (default 64).
	MaxIters int
}

// WRAcc returns the weighted relative accuracy of b on d.
func WRAcc(b *box.Box, d *dataset.Dataset) float64 {
	st := sd.Compute(b, d)
	n := float64(d.N())
	if n == 0 || st.N == 0 {
		return 0
	}
	p0 := d.PositiveShare()
	return float64(st.N) / n * (st.Precision() - p0)
}

// group is one run of equal x_j values with the summed WRAcc weight of
// its points.
type group struct {
	value float64
	sum   float64
}

// Discover implements sd.Discoverer. The RNG is unused; BI is
// deterministic. The validation set only contributes the recorded
// statistics: BI selects its box on train data, per Algorithm 3.
func (a *BI) Discover(train, val *dataset.Dataset, _ *rand.Rand) (*sd.Result, error) {
	if train.N() == 0 || val.N() == 0 {
		return nil, fmt.Errorf("bi: empty train or validation data")
	}
	if train.M() != val.M() {
		return nil, fmt.Errorf("bi: train has %d inputs, val has %d", train.M(), val.M())
	}
	bs := a.BeamSize
	if bs == 0 {
		bs = 1
	}
	depth := a.Depth
	m := train.M()
	if depth <= 0 || depth > m {
		depth = m
	}
	maxIters := a.MaxIters
	if maxIters == 0 {
		maxIters = 64
	}

	// Row indices pre-sorted along every dimension, computed once on the
	// dataset and shared with every other consumer.
	cols := train.Columns()
	orders := train.SortedOrders()
	p0 := train.PositiveShare()
	nf := float64(train.N())

	// Scratch reused across all candidate evaluations. viol/vdim are
	// computed once per beam box and then only read, so the dimension
	// workers share them; each worker makes its tie-group buffer once.
	viol := make([]int, train.N())
	vdim := make([]int, train.N())
	bufs := make([][]group, m)
	slots := make([]scored, m)

	beam := []scored{{box.Full(m), 0}} // full box has WRAcc 0

	for iter := 0; iter < maxIters; iter++ {
		candidates := append([]scored(nil), beam...)
		for _, cur := range beam {
			// One violation-count pass replaces the per-(point, dim)
			// othersContain scan: a point is eligible for refining dim j
			// iff it violates no bound of cur, or only the bound on j.
			countViolations(train, cur.b, viol, vdim)
			// The M per-dimension refinements of one beam box are
			// independent: fan them out, gather into fixed slots,
			// append in dimension order — byte-identical to the serial
			// scan at any GOMAXPROCS.
			par.For(m, func(w, j int) {
				if bufs[w] == nil {
					bufs[w] = make([]group, 0, train.N())
				}
				slots[j] = scored{}
				nb, ok := bestInterval(cols[j], train.Y, orders[j], cur.b, j, p0, viol, vdim, &bufs[w])
				if !ok || nb.Restricted() > depth {
					return
				}
				wr := intervalWRAcc(cols[j], train.Y, orders[j], j, nb, p0, viol, vdim)
				slots[j] = scored{nb, wr / nf}
			})
			for j := 0; j < m; j++ {
				if slots[j].b != nil {
					candidates = append(candidates, slots[j])
				}
			}
		}
		// Keep the top bs distinct boxes.
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].w > candidates[b].w })
		var next []scored
		for _, c := range candidates {
			dup := false
			for _, kept := range next {
				if kept.b.Equal(c.b) {
					dup = true
					break
				}
			}
			if !dup {
				next = append(next, c)
			}
			if len(next) == bs {
				break
			}
		}
		if sameBeam(beam, next) {
			break
		}
		beam = next
	}

	best := beam[0].b
	res := &sd.Result{}
	full := box.Full(m)
	if !best.Equal(full) {
		res.Steps = append(res.Steps, sd.Step{
			Box:   full,
			Train: sd.Compute(full, train),
			Val:   sd.Compute(full, val),
		})
	}
	res.Steps = append(res.Steps, sd.Step{
		Box:   best,
		Train: sd.Compute(best, train),
		Val:   sd.Compute(best, val),
	})
	res.FinalIndex = len(res.Steps) - 1
	return res, nil
}

// scored pairs a candidate box with its train WRAcc.
type scored struct {
	b *box.Box
	w float64
}

func sameBeam(a, b []scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].b.Equal(b[i].b) {
			return false
		}
	}
	return true
}

// countViolations fills, for every point, how many bounds of b it
// violates and (when exactly one) which dimension. Counting stops at two
// — such points are ineligible for every refinement dimension.
func countViolations(d *dataset.Dataset, b *box.Box, viol, vdim []int) {
	for i, x := range d.X {
		c, vd := 0, -1
		for j, v := range x {
			if v < b.Lo[j] || v > b.Hi[j] {
				c++
				vd = j
				if c > 1 {
					break
				}
			}
		}
		viol[i] = c
		vdim[i] = vd
	}
}

// eligible reports whether point i satisfies all bounds except possibly
// the one on dim j — the fast equivalent of othersContain.
func eligible(viol, vdim []int, i, j int) bool {
	return viol[i] == 0 || (viol[i] == 1 && vdim[i] == j)
}

// bestInterval finds the WRAcc-optimal interval for dimension j of box
// cur (ignoring cur's existing bounds on j, per BestIntervalWRAcc). It
// returns ok = false when no point satisfies the other bounds. When the
// optimal run spans all eligible points the dimension is left
// unrestricted. The tie-group buffer is borrowed from the caller and
// reused across candidates.
func bestInterval(col, y []float64, order []int, cur *box.Box, j int, p0 float64, viol, vdim []int, buf *[]group) (*box.Box, bool) {
	// Build tie-groups over eligible points in ascending x_j order.
	groups := (*buf)[:0]
	for _, i := range order {
		if !eligible(viol, vdim, i, j) {
			continue
		}
		v := col[i]
		w := y[i] - p0
		if len(groups) > 0 && groups[len(groups)-1].value == v {
			groups[len(groups)-1].sum += w
		} else {
			groups = append(groups, group{value: v, sum: w})
		}
	}
	*buf = groups
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

// intervalWRAcc returns Σ_{i∈nb}(y_i − p₀) for a box nb that differs
// from the beam box only on dim j, accumulated in ascending x_j order —
// the same iteration the reference's nb.Contains scan performs, at O(1)
// per point instead of O(M).
func intervalWRAcc(col, y []float64, order []int, j int, nb *box.Box, p0 float64, viol, vdim []int) float64 {
	lo, hi := nb.Lo[j], nb.Hi[j]
	w := 0.0
	for _, i := range order {
		if eligible(viol, vdim, i, j) {
			v := col[i]
			if v >= lo && v <= hi {
				w += y[i] - p0
			}
		}
	}
	return w
}
