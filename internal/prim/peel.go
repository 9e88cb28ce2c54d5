// Package prim implements the Patient Rule Induction Method of Friedman &
// Fisher 1999 (Algorithm 1 of the paper): iterative peeling of the
// α-quantile slab with the lowest output mean, optional pasting, and the
// bumping ensemble variant of Kwakkel & Cunningham 2016 (Algorithm 2).
//
// Peeling runs on a columnar fast path over per-dimension sorted
// orders, so every candidate peel is a boundary walk plus an O(α·n)
// prefix sum instead of the original implementation's α-quantile
// selection and three full passes, which the tests keep as their oracle
// (peel_reference_test.go). A peel step rewrites no order. Rows that
// left the box stay in an order, and the walks step over them by their
// in-box mark, until at most half of the order's rows are in the box
// and it is compacted. Until then an order is the dataset's shared
// dataset.SortedOrders one, read and never written; its first
// compaction copies it out. One pass per step over the in-box rows
// filters them and sums the kept labels. A step's dimensions are
// independent: par.For evaluates each one's low and high peel. Bumping
// peels its replicas and scores their boxes the same way.
package prim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/reds-go/reds/internal/box"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/par"
	"github.com/reds-go/reds/internal/sd"
)

// Objective selects the target function guiding the peel — Section 2.1
// of the paper cites alternative objectives (Kwakkel & Jaxa-Rozen 2016)
// as a REDS-compatible PRIM improvement.
type Objective int

const (
	// ObjectiveMean maximizes the mean label of the remaining box, the
	// original Friedman & Fisher criterion (default).
	ObjectiveMean Objective = iota
	// ObjectiveLift maximizes mean·sqrt(n) of the remaining box, a
	// support-weighted criterion that resists premature drilling into
	// tiny pure pockets.
	ObjectiveLift
)

// Peeler is the peeling phase of PRIM. The zero value uses the paper's
// defaults: α = 0.05, mp = 20, mean objective.
type Peeler struct {
	// Alpha is the peeling fraction (default 0.05).
	Alpha float64
	// MinPoints is the support floor mp: peeling stops before the box
	// would hold fewer than MinPoints train or validation examples
	// (default 20).
	MinPoints int
	// Paste enables the pasting phase after peeling (off by default,
	// matching Section 3.2.1).
	Paste bool
	// Objective selects the peel target function (default ObjectiveMean).
	Objective Objective
}

// Discover implements sd.Discoverer. The RNG is unused; peeling is
// deterministic.
func (p *Peeler) Discover(train, val *dataset.Dataset, _ *rand.Rand) (*sd.Result, error) {
	if train.N() == 0 || val.N() == 0 {
		return nil, fmt.Errorf("prim: empty train or validation data")
	}
	if train.M() != val.M() {
		return nil, fmt.Errorf("prim: train has %d inputs, val has %d", train.M(), val.M())
	}
	alpha := p.Alpha
	if alpha == 0 {
		alpha = 0.05
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("prim: alpha must be in (0,1), got %g", alpha)
	}
	mp := p.MinPoints
	if mp == 0 {
		mp = 20
	}

	cur := box.Full(train.M())
	eng := newPeelEngine(train, p.Objective)
	valCols := val.Columns()
	valIdx := allIndices(val.N())

	res := &sd.Result{}
	res.Steps = append(res.Steps, sd.Step{
		Box:   cur.Clone(),
		Train: sd.Stats{N: len(eng.idx), NPos: eng.total},
		Val:   statsOf(val, valIdx),
	})

	for {
		cand, ok := eng.bestPeel(alpha)
		if !ok {
			break
		}
		// Apply the peel to both sets, then check the support floor. A
		// peel that breaks it ends the search, so nothing undoes it.
		trainSt := eng.peel(cand)
		var valSt sd.Stats
		valIdx, valSt = keepWithin(valIdx, valCols[cand.dim], val.Y, cand.lo, cand.hi)
		if trainSt.N < mp || valSt.N < mp {
			break
		}
		cur.Lo[cand.dim] = math.Max(cur.Lo[cand.dim], cand.lo)
		cur.Hi[cand.dim] = math.Min(cur.Hi[cand.dim], cand.hi)
		res.Steps = append(res.Steps, sd.Step{Box: cur.Clone(), Train: trainSt, Val: valSt})
	}

	if p.Paste {
		pasteLoop(res, train, val, alpha)
	}

	res.FinalIndex = selectFinal(res.Steps)
	return res, nil
}

// allIndices returns [0, 1, ..., n-1].
func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func statsOf(d *dataset.Dataset, idx []int) sd.Stats {
	st := sd.Stats{N: len(idx)}
	for _, i := range idx {
		st.NPos += d.Y[i]
	}
	return st
}

// keepWithin filters the rows idx in place to those whose value in col
// lies within [lo, hi], and returns them with their statistics: the
// kept rows' labels y summed in row order, as statsOf sums them.
func keepWithin(idx []int, col, y []float64, lo, hi float64) ([]int, sd.Stats) {
	w := 0
	var pos float64
	for _, r := range idx {
		if v := col[r]; v >= lo && v <= hi {
			idx[w] = r
			w++
			pos += y[r]
		}
	}
	return idx[:w], sd.Stats{N: w, NPos: pos}
}

// peelCand describes a candidate peel: restrict dim to [lo, hi].
type peelCand struct {
	dim    int
	lo, hi float64
	mean   float64 // objective value of the points remaining after the peel
	remain int
}

// better orders candidates by remaining mean, breaking ties in favor of
// the larger remaining subgroup, then the lower dimension for
// determinism.
func better(a, b peelCand) bool {
	const eps = 1e-12
	if a.mean > b.mean+eps {
		return true
	}
	if a.mean < b.mean-eps {
		return false
	}
	if a.remain != b.remain {
		return a.remain > b.remain
	}
	return a.dim < b.dim
}

// selectFinal returns the index of the step with the highest validation
// precision, preferring the earlier (larger) box on ties — Algorithm 1,
// line 5.
func selectFinal(steps []sd.Step) int {
	best, bestPrec := 0, -1.0
	for i, s := range steps {
		p := s.Val.Precision()
		if p > bestPrec+1e-12 {
			best, bestPrec = i, p
		}
	}
	return best
}

// peelEngine holds the state the fast candidate search keeps across
// peel steps: the training columns and labels, the in-box rows, one
// ascending row order per dimension, and per-dimension result slots
// that par.For fills.
//
// An order may still hold rows that left the box. Each evaluation trims
// them off its ends, and the candidate walks step over the rest without
// a branch: a row's in-box mark advances the count and masks its label.
// Only once at most half of an order's rows are still in the box is it
// compacted. Until its first compaction an order is the dataset's
// shared one, which the engine reads and never writes; that compaction
// copies it out.
type peelEngine struct {
	cols  [][]float64
	y     []float64
	idx   []int   // the in-box rows, ascending
	total float64 // their labels summed in row order
	in    []uint8 // 1 while the row is in the box, 0 after
	ords  [][]int // per-dim ascending orders, in-box rows at both ends
	own   [][]int // per-dim private order buffers, nil until needed

	obj   Objective
	cands []peelCand
	found []bool
}

func newPeelEngine(train *dataset.Dataset, obj Objective) *peelEngine {
	n, m := train.N(), train.M()
	idx := allIndices(n)
	in := make([]uint8, n)
	for i := range in {
		in[i] = 1
	}
	return &peelEngine{
		cols:  train.Columns(),
		y:     train.Y,
		idx:   idx,
		total: statsOf(train, idx).NPos,
		in:    in,
		// A copy of the headers only: trimming reslices ords[j], and
		// the dataset's own view must keep its full orders.
		ords:  slices.Clone(train.SortedOrders()),
		own:   make([][]int, m),
		obj:   obj,
		cands: make([]peelCand, m),
		found: make([]bool, m),
	}
}

// peel applies cand in one pass over the in-box rows: it keeps the rows
// within the new bounds, marks the others out of the box, and sums the
// kept labels in row order. The sum is both the step's statistic and
// the next step's total.
func (e *peelEngine) peel(cand peelCand) sd.Stats {
	col, idx := e.cols[cand.dim], e.idx
	w := 0
	var pos float64
	for _, r := range idx {
		if v := col[r]; v >= cand.lo && v <= cand.hi {
			idx[w] = r
			w++
			pos += e.y[r]
		} else {
			e.in[r] = 0
		}
	}
	e.idx, e.total = idx[:w], pos
	return sd.Stats{N: w, NPos: pos}
}

// bestPeel evaluates the 2M candidate peels (Step 3 of Algorithm 1) over
// the in-box rows and returns the one maximizing the objective. ok is
// false when no candidate removes at least one but not all points.
func (e *peelEngine) bestPeel(alpha float64) (peelCand, bool) {
	n := len(e.idx)
	if n < 2 {
		return peelCand{}, false
	}
	k := int(alpha * float64(n))
	if k < 1 {
		k = 1
	}

	m := len(e.cols)
	par.For(m, func(_, j int) {
		e.evalDim(j, n, k)
	})

	best := peelCand{mean: math.Inf(-1)}
	found := false
	for j := 0; j < m; j++ {
		if e.found[j] && better(e.cands[j], best) {
			best, found = e.cands[j], true
		}
	}
	return best, found
}

// evalDim trims dimension j's sorted order, compacts it once at most
// half its rows are in the box, then evaluates its low- and high-side
// peel candidates over the n in-box rows into the engine's result
// slots.
func (e *peelEngine) evalDim(j, n, k int) {
	in, y := e.in, e.y
	ord := e.ords[j]
	lo, hi := 0, len(ord)
	for in[ord[lo]] == 0 {
		lo++
	}
	for in[ord[hi-1]] == 0 {
		hi--
	}
	ord = ord[lo:hi]
	if 2*n <= len(ord) {
		if e.own[j] == nil {
			e.own[j] = make([]int, n)
		}
		// Branch-free compaction: every row is written, and only a row
		// still in the box advances w past itself. In the private
		// buffer writes trail reads; the in-box ends keep a first
		// compaction's writes within its n slots.
		dst, w := e.own[j], 0
		for _, r := range ord {
			dst[w] = r
			w += int(in[r])
		}
		ord = dst[:w]
	}
	e.ords[j] = ord
	col := e.cols[j]
	var best peelCand
	found := false

	// Low-side peel: remove all in-box points with value <= the k-th
	// smallest (ties removed together so the peel always makes
	// progress). The walk stops at the first in-box row above t.
	p, c := 0, 0
	var removedSum float64
	for c < k {
		r := ord[p]
		c += int(in[r])
		removedSum += masked(y[r], in[r])
		p++
	}
	t := col[ord[p-1]]
	for ; p < len(ord); p++ {
		r := ord[p]
		if in[r] == 1 && !(col[r] <= t) {
			break
		}
		c += int(in[r])
		removedSum += masked(y[r], in[r])
	}
	if c < n {
		// The new bound is the midpoint between the last removed and the
		// first remaining value — the least-biased cut for fresh data —
		// or that remaining value itself where the midpoint would not
		// cut above t (t = -Inf, or the two values are adjacent floats).
		next := col[ord[p]]
		cut := (t + next) / 2
		if cut <= t {
			cut = next
		}
		best, found = e.candidate(j, cut, math.Inf(1), removedSum, n-c), true
	}

	// High-side peel: remove all in-box points with value >= the k-th
	// largest. The walk goes down to the first in-box row below t, and
	// the removed labels are then summed upward, in ascending order.
	p, c = len(ord), 0
	for c < k {
		p--
		c += int(in[ord[p]])
	}
	t = col[ord[p]]
	for ; p > 0; p-- {
		r := ord[p-1]
		if in[r] == 1 && !(col[r] >= t) {
			break
		}
		c += int(in[r])
	}
	if c < n {
		removedSum = 0
		for _, r := range ord[p:] {
			removedSum += masked(y[r], in[r])
		}
		prev := col[ord[p-1]]
		cut := (t + prev) / 2
		if cut >= t {
			cut = prev
		}
		if hc := e.candidate(j, math.Inf(-1), cut, removedSum, n-c); !found || better(hc, best) {
			best, found = hc, true
		}
	}
	e.cands[j], e.found[j] = best, found
}

// candidate is dimension j's peel to [lo, hi], which removes in-box
// labels summing to removedSum and leaves remain rows, scored by the
// engine's objective.
func (e *peelEngine) candidate(j int, lo, hi, removedSum float64, remain int) peelCand {
	mean := (e.total - removedSum) / float64(remain)
	if e.obj == ObjectiveLift {
		mean *= math.Sqrt(float64(remain))
	}
	return peelCand{dim: j, lo: lo, hi: hi, mean: mean, remain: remain}
}

// masked is y for a row in the box (in = 1) and +0 for one that left
// it (in = 0): a bit mask, not a product, since 0·y is NaN for an
// infinite y. Adding +0 leaves a sum begun at +0 unchanged.
func masked(y float64, in uint8) float64 {
	return math.Float64frombits(math.Float64bits(y) & -uint64(in))
}
