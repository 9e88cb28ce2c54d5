package rf

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/metamodel"
)

// tiedTrainData builds a training set with heavy cross-row ties so the
// compiled trees contain thresholds that points can land on exactly.
func tiedTrainData(n, m int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	levels := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			if j%2 == 0 {
				row[j] = levels[rng.Intn(len(levels))]
			} else {
				row[j] = rng.Float64()
			}
		}
		x[i] = row
		if row[0] < 0.5 && row[1] > 0.3 {
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

// batchQueryPoints draws query points that exercise the awkward cases:
// exact training values (threshold ties), duplicated points, and
// NaN-free ±Inf coordinates (a point on an unbounded box edge).
func batchQueryPoints(d *dataset.Dataset, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	m := d.M()
	pts := make([][]float64, 0, n)
	for len(pts) < n {
		row := make([]float64, m)
		switch len(pts) % 4 {
		case 0: // uniform random
			for j := range row {
				row[j] = rng.Float64()
			}
		case 1: // copy of a training row: every comparison ties
			copy(row, d.X[rng.Intn(d.N())])
		case 2: // one non-finite coordinate: ±Inf box edges, or NaN
			// (Descend routes NaN right at every split, and the
			// compiled descent must match instead of mis-descending)
			for j := range row {
				row[j] = rng.Float64()
			}
			switch rng.Intn(3) {
			case 0:
				row[rng.Intn(m)] = math.Inf(1)
			case 1:
				row[rng.Intn(m)] = math.Inf(-1)
			default:
				row[rng.Intn(m)] = math.NaN()
			}
		case 3: // duplicate of the previous point
			copy(row, pts[len(pts)-1])
		}
		pts = append(pts, row)
	}
	return pts
}

// TestForestBatchMatchesPerPoint holds the table's kernels to a
// per-point flattree.Descend walk over the decoded trees,
// probabilities and labels alike.
func TestForestBatchMatchesPerPoint(t *testing.T) {
	d := tiedTrainData(300, 6, 1)
	model, err := (&Trainer{NTrees: 30}).Train(d, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	f := model.(*Forest)
	pts := batchQueryPoints(d, 1237, 3) // odd count: exercises the tail chunk
	probs := make([]float64, len(pts))
	labels := make([]float64, len(pts))
	f.PredictProbBatchInto(probs, pts)
	f.PredictLabelBatchInto(labels, pts)
	trees := f.table.Decode()
	for i, x := range pts {
		want := 0.0
		for _, tree := range trees {
			want += tree[flattree.Descend(tree, x)].Value
		}
		want /= float64(len(trees))
		wantLabel := 0.0
		if want > 0.5 {
			wantLabel = 1
		}
		if probs[i] != want {
			t.Fatalf("point %d: batch prob %v, descent %v", i, probs[i], want)
		}
		if labels[i] != wantLabel {
			t.Fatalf("point %d: batch label %v, descent %v", i, labels[i], wantLabel)
		}
	}
}

// TestForestBatchThroughMetamodel asserts the metamodel's chunked
// labeling returns what one whole-slice kernel call does, across
// GOMAXPROCS settings.
func TestForestBatchThroughMetamodel(t *testing.T) {
	d := tiedTrainData(200, 5, 4)
	model, err := (&Trainer{NTrees: 20}).Train(d, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	pts := batchQueryPoints(d, 999, 6)
	want := make([]float64, len(pts))
	model.PredictProbBatchInto(want, pts)
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := metamodel.PredictProbBatchCtx(t.Context(), model, pts, nil)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS=%d point %d: %v != %v", procs, i, got[i], want[i])
			}
		}
	}
}
