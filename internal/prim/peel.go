// Package prim implements the Patient Rule Induction Method of Friedman &
// Fisher 1999 (Algorithm 1 of the paper): iterative peeling of the
// α-quantile slab with the lowest output mean, optional pasting, and the
// bumping ensemble variant of Kwakkel & Cunningham 2016 (Algorithm 2).
//
// Peeling runs on a columnar fast path: per-dimension sorted orders
// (seeded from dataset.SortedOrders) are maintained across peel steps by
// compaction, so every candidate peel is a boundary walk plus an
// O(α·n) prefix sum instead of the original implementation's α-quantile
// selection and three full passes, which the tests keep as their oracle
// (peel_reference_test.go). A step's dimensions are independent: par.For
// evaluates each one's low and high peel on the Peeler's worker budget.
// Bumping peels its replicas and scores their boxes the same way.
package prim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

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
	// Workers caps the worker pool evaluating a step's per-dimension
	// peel candidates (default GOMAXPROCS, never more than the number
	// of inputs; 1 evaluates serially with no goroutines).
	Workers int
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

	m := train.M()
	cur := box.Full(m)
	trainIdx := allIndices(train.N())
	valIdx := allIndices(val.N())

	res := &sd.Result{}
	res.Steps = append(res.Steps, sd.Step{
		Box:   cur.Clone(),
		Train: statsOf(train, trainIdx),
		Val:   statsOf(val, valIdx),
	})

	// The candidate search maintains sorted per-dimension orders in a
	// peelEngine; the box filters through reusable ping-pong buffers.
	eng := newPeelEngine(train, p.Workers, p.Objective)
	valCols := val.Columns()
	trainSpare := make([]int, 0, train.N())
	valSpare := make([]int, 0, val.N())

	for {
		cand, ok := eng.bestPeel(trainIdx, alpha)
		if !ok {
			break
		}
		// Apply tentatively to measure the support floor on both sets.
		newTrainIdx := filterIdxInto(trainSpare[:0], eng.cols[cand.dim], trainIdx, cand.lo, cand.hi)
		newValIdx := filterIdxInto(valSpare[:0], valCols[cand.dim], valIdx, cand.lo, cand.hi)
		if len(newTrainIdx) < mp || len(newValIdx) < mp {
			break
		}
		cur.Lo[cand.dim] = math.Max(cur.Lo[cand.dim], cand.lo)
		cur.Hi[cand.dim] = math.Min(cur.Hi[cand.dim], cand.hi)
		eng.applied(trainIdx, newTrainIdx)
		// The outgoing index slices become the next step's spares.
		trainSpare, valSpare = trainIdx, valIdx
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

// filterIdxInto appends to dst the indices of idx whose value in the
// column col lies within [lo, hi].
func filterIdxInto(dst []int, col []float64, idx []int, lo, hi float64) []int {
	for _, i := range idx {
		v := col[i]
		if v >= lo && v <= hi {
			dst = append(dst, i)
		}
	}
	return dst
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

// peelEngine holds the state the fast candidate search maintains across
// peel steps: the training columns, one sorted row order per dimension
// (compacted lazily against the in-box set), and per-dimension result
// slots that par.For fills.
type peelEngine struct {
	cols  [][]float64
	y     []float64
	ords  [][]int // per-dim ascending orders of the current in-box rows
	inbox []bool  // row is inside the current box
	stale bool    // a peel was applied; orders need compaction

	workers int
	obj     Objective
	cands   []peelCand
	found   []bool
}

func newPeelEngine(train *dataset.Dataset, workers int, obj Objective) *peelEngine {
	cols := train.Columns()
	shared := train.SortedOrders()
	n, m := train.N(), train.M()
	// Private copies of the shared orders: the engine compacts them in
	// place as the box shrinks.
	backing := make([]int, n*m)
	ords := make([][]int, m)
	for j := range ords {
		ords[j] = backing[j*n : (j+1)*n]
		copy(ords[j], shared[j])
	}
	inbox := make([]bool, n)
	for i := range inbox {
		inbox[i] = true
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &peelEngine{
		cols:    cols,
		y:       train.Y,
		ords:    ords,
		inbox:   inbox,
		workers: workers,
		obj:     obj,
		cands:   make([]peelCand, m),
		found:   make([]bool, m),
	}
}

// applied records that the box shrank from the rows of old to the rows
// of cur; the per-dimension orders compact against the new in-box set on
// their next evaluation.
func (e *peelEngine) applied(old, cur []int) {
	for _, i := range old {
		e.inbox[i] = false
	}
	for _, i := range cur {
		e.inbox[i] = true
	}
	e.stale = true
}

// bestPeel evaluates the 2M candidate peels (Step 3 of Algorithm 1) over
// the in-box rows idx and returns the one maximizing the objective. ok
// is false when no candidate removes at least one but not all points.
func (e *peelEngine) bestPeel(idx []int, alpha float64) (peelCand, bool) {
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
		total += e.y[i]
	}

	m := len(e.cols)
	par.For(e.workers, m, func(_, j int) {
		e.evalDim(j, n, k, total)
	})
	e.stale = false

	best := peelCand{mean: math.Inf(-1)}
	found := false
	for j := 0; j < m; j++ {
		if e.found[j] && better(e.cands[j], best) {
			best, found = e.cands[j], true
		}
	}
	return best, found
}

// evalDim compacts dimension j's sorted order if needed, then evaluates
// its low- and high-side peel candidates into the engine's result slots.
func (e *peelEngine) evalDim(j, n, k int, total float64) {
	ord := e.ords[j]
	if e.stale {
		// Branch-free compaction: every row is written, and only a row
		// still in the box advances w past itself. Writes trail reads.
		inbox, w := e.inbox, 0
		for _, r := range ord {
			ord[w] = r
			w += b2i(inbox[r])
		}
		ord = ord[:w]
		e.ords[j] = ord
	}
	col := e.cols[j]
	var dimBest peelCand
	dimFound := false

	// Low-side peel: remove all points with value <= the k-th smallest
	// (ties removed together so the peel always makes progress).
	t := col[ord[k-1]]
	b := k
	for b < n && col[ord[b]] <= t {
		b++
	}
	if b < n {
		var removedSum float64
		for _, r := range ord[:b] {
			removedSum += e.y[r]
		}
		remain := n - b
		score := (total - removedSum) / float64(remain)
		if e.obj == ObjectiveLift {
			score *= math.Sqrt(float64(remain))
		}
		// The new bound is the midpoint between the last removed and the
		// first remaining value — the least-biased cut for fresh data.
		dimBest = peelCand{
			dim:    j,
			lo:     (t + col[ord[b]]) / 2,
			hi:     math.Inf(1),
			mean:   score,
			remain: remain,
		}
		dimFound = true
	}

	// High-side peel: remove all points with value >= the k-th largest.
	t = col[ord[n-k]]
	b = n - k
	for b > 0 && col[ord[b-1]] >= t {
		b--
	}
	if b > 0 {
		var removedSum float64
		for _, r := range ord[b:] {
			removedSum += e.y[r]
		}
		remain := b
		score := (total - removedSum) / float64(remain)
		if e.obj == ObjectiveLift {
			score *= math.Sqrt(float64(remain))
		}
		hc := peelCand{
			dim:    j,
			lo:     math.Inf(-1),
			hi:     (t + col[ord[b-1]]) / 2,
			mean:   score,
			remain: remain,
		}
		if !dimFound || better(hc, dimBest) {
			dimBest = hc
			dimFound = true
		}
	}
	e.cands[j] = dimBest
	e.found[j] = dimFound
}

// b2i is 1 for true and 0 for false; the compiler loads the bool's byte
// instead of jumping on it.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
