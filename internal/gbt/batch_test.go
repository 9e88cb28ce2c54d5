package gbt

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/metamodel"
)

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

func batchQueryPoints(d *dataset.Dataset, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	m := d.M()
	pts := make([][]float64, 0, n)
	for len(pts) < n {
		row := make([]float64, m)
		switch len(pts) % 4 {
		case 0:
			for j := range row {
				row[j] = rng.Float64()
			}
		case 1: // exact training row: every split comparison ties
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
		case 3:
			copy(row, pts[len(pts)-1])
		}
		pts = append(pts, row)
	}
	return pts
}

// TestGBTBatchMatchesPerPoint holds the table's kernels and the model's
// per-point methods to a per-point flattree.Descend walk over the
// decoded trees, for probabilities and for the margin-thresholded
// labels.
func TestGBTBatchMatchesPerPoint(t *testing.T) {
	d := tiedTrainData(300, 6, 11)
	trained, err := (&Trainer{Rounds: 40, MaxDepth: 3}).Train(d, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	m := trained.(*Model)
	pts := batchQueryPoints(d, 1237, 13)
	probs := make([]float64, len(pts))
	labels := make([]float64, len(pts))
	m.PredictProbBatchInto(probs, pts)
	m.PredictLabelBatchInto(labels, pts)
	trees := m.table.Decode()
	for i, x := range pts {
		margin := m.base
		for _, tree := range trees {
			margin += m.eta * tree[flattree.Descend(tree, x)].Value
		}
		wantLabel := 0.0
		if margin > 0 {
			wantLabel = 1
		}
		if want := sigmoid(margin); probs[i] != want || m.PredictProb(x) != want {
			t.Fatalf("point %d: batch prob %v, PredictProb %v, descent %v", i, probs[i], m.PredictProb(x), want)
		}
		if m.Margin(x) != margin {
			t.Fatalf("point %d: Margin %v, descent %v", i, m.Margin(x), margin)
		}
		if labels[i] != wantLabel || m.PredictLabel(x) != wantLabel {
			t.Fatalf("point %d: batch label %v, PredictLabel %v, descent %v", i, labels[i], m.PredictLabel(x), wantLabel)
		}
	}
}

// TestGBTBatchThroughMetamodel asserts BatchModel detection in the
// metamodel wrappers, for the label path this time.
func TestGBTBatchThroughMetamodel(t *testing.T) {
	d := tiedTrainData(200, 5, 14)
	trained, err := (&Trainer{Rounds: 25}).Train(d, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := trained.(metamodel.BatchModel); !ok {
		t.Fatal("gbt.Model does not implement metamodel.BatchModel")
	}
	pts := batchQueryPoints(d, 999, 16)
	want := metamodel.PredictBatchSerial(pts, trained.PredictLabel)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	got, err := metamodel.PredictLabelBatchCtx(t.Context(), trained, pts, metamodel.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: %v != %v", i, got[i], want[i])
		}
	}
}
