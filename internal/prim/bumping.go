package prim

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

// Bumping is PRIM with bumping (Algorithm 2 of the paper, after Kwakkel &
// Cunningham 2016): Q peeling runs on bootstrap resamples restricted to
// random input subsets of size SubsetSize, followed by a Pareto filter on
// validation precision and recall (Definition 1).
type Bumping struct {
	// Alpha and MinPoints configure the inner peeler (defaults 0.05, 20).
	Alpha     float64
	MinPoints int
	// Q is the number of bootstrap repetitions (default 50).
	Q int
	// SubsetSize is m, the number of inputs per repetition
	// (default: all inputs).
	SubsetSize int
}

// Discover implements sd.Discoverer.
func (b *Bumping) Discover(train, val *dataset.Dataset, rng *rand.Rand) (*sd.Result, error) {
	if rng == nil {
		return nil, fmt.Errorf("prim: bumping requires an RNG for bootstrapping")
	}
	if train.N() == 0 || val.N() == 0 {
		return nil, fmt.Errorf("prim: empty train or validation data")
	}
	q := b.Q
	if q == 0 {
		q = 50
	}
	m := train.M()
	subset := b.SubsetSize
	if subset <= 0 || subset > m {
		subset = m
	}
	peeler := &Peeler{Alpha: b.Alpha, MinPoints: b.MinPoints}

	// Draw every replica's bootstrap rows and column subset on the
	// caller's goroutine first — the RNG stream is exactly that of a
	// serial run — then peel the independent replicas in parallel. A
	// subset of every input is the identity, so that replica peels its
	// bootstrap as drawn, without a copy of its rows.
	type replica struct {
		sub  *dataset.Dataset
		cols []int
	}
	reps := make([]replica, q)
	for rep := range reps {
		sub := train.Bootstrap(rng)
		cols := rng.Perm(m)[:subset]
		sort.Ints(cols)
		if subset < m {
			sub = sub.SelectColumns(cols)
		}
		reps[rep] = replica{sub: sub, cols: cols}
	}
	results := make([]*sd.Result, q)
	errs := make([]error, q)
	par.For(q, func(_, rep int) {
		results[rep], errs[rep] = peeler.Discover(reps[rep].sub, reps[rep].sub, nil)
	})
	var boxes []*box.Box
	for rep := 0; rep < q; rep++ {
		if errs[rep] != nil {
			return nil, fmt.Errorf("prim: bumping repetition %d: %w", rep, errs[rep])
		}
		for _, step := range results[rep].Steps {
			boxes = append(boxes, liftBox(step.Box, reps[rep].cols, m))
		}
	}

	// Pareto filter on validation precision and recall. Evaluating every
	// candidate box on the validation set is itself a hot loop
	// (Q replicas × trajectory steps, O(N·M) each) and each box is
	// independent, so it fans out too.
	totalPos := 0.0
	for _, y := range val.Y {
		totalPos += y
	}
	valStats := make([]sd.Stats, len(boxes))
	par.For(len(boxes), func(_, i int) {
		valStats[i] = sd.Compute(boxes[i], val)
	})
	qualities := make([][]float64, len(boxes))
	for i := range boxes {
		recall := 0.0
		if totalPos > 0 {
			recall = valStats[i].NPos / totalPos
		}
		qualities[i] = []float64{valStats[i].Precision(), recall}
	}
	front := box.ParetoFront(qualities)

	// Assemble the non-dominated set into a recall-sorted trajectory,
	// deduplicating identical boxes, so downstream metrics treat it like
	// a peeling trajectory.
	sort.Slice(front, func(a, b int) bool {
		qa, qb := qualities[front[a]], qualities[front[b]]
		if qa[1] != qb[1] {
			return qa[1] > qb[1] // recall descending
		}
		return qa[0] > qb[0]
	})
	res := &sd.Result{}
	for _, i := range front {
		bx := boxes[i]
		dup := false
		for _, s := range res.Steps {
			if s.Box.Equal(bx) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		res.Steps = append(res.Steps, sd.Step{
			Box:   bx,
			Train: sd.Compute(bx, train),
			Val:   valStats[i],
		})
	}
	if len(res.Steps) == 0 {
		full := box.Full(m)
		res.Steps = append(res.Steps, sd.Step{
			Box:   full,
			Train: sd.Compute(full, train),
			Val:   sd.Compute(full, val),
		})
	}
	res.FinalIndex = selectFinal(res.Steps)
	return res, nil
}

// liftBox maps a box over the column subset cols back to the full
// m-dimensional space, leaving unselected inputs unrestricted.
func liftBox(sub *box.Box, cols []int, m int) *box.Box {
	full := box.Full(m)
	for k, c := range cols {
		full.Lo[c] = sub.Lo[k]
		full.Hi[c] = sub.Hi[k]
	}
	// Normalize any -0/+0 or NaN-free guarantees: bounds are copied as-is.
	for j := 0; j < m; j++ {
		if math.IsNaN(full.Lo[j]) || math.IsNaN(full.Hi[j]) {
			panic("prim: NaN bound after lift")
		}
	}
	return full
}
