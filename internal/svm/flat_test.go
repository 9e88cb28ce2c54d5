package svm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
)

func svmTrainData(n, m int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		if row[0]+row[1] > 1 {
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

// decision is the blocked kernel's oracle, the model's decision
// function f(x) = −b + Σ coefᵢ·exp(−γ‖svᵢ − x‖²) written out over its
// fields for one point, summed in ascending support-vector order.
func decision(m *Model, x []float64) float64 {
	s := -m.b
	for i, c := range m.coef {
		d := 0.0
		for j, v := range m.sv[i*m.dim : (i+1)*m.dim] {
			diff := v - x[j]
			d += diff * diff
		}
		s += c * math.Exp(-m.gamma*d)
	}
	return s
}

// TestSVMBatchMatchesPerPoint asserts the blocked kernel evaluation is
// byte-identical to the decision function evaluated point by point,
// with more support vectors than one block so the blocking itself is
// exercised.
func TestSVMBatchMatchesPerPoint(t *testing.T) {
	d := svmTrainData(700, 4, 21)
	trained, err := (&Trainer{C: 10}).Train(d, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	m := trained.(*Model)
	if m.NumSupport() == 0 {
		t.Fatal("training collapsed to a constant model")
	}
	if m.NumSupport() <= svBlock {
		t.Fatalf("want > %d support vectors to exercise blocking, got %d", svBlock, m.NumSupport())
	}
	rng := rand.New(rand.NewSource(23))
	pts := make([][]float64, 777)
	for i := range pts {
		row := make([]float64, d.M())
		for j := range row {
			row[j] = rng.Float64()
		}
		if i%5 == 4 {
			row[rng.Intn(len(row))] = math.Inf(1) // rbf distance overflows to +Inf, exp to 0
		}
		pts[i] = row
	}
	probs := make([]float64, len(pts))
	labels := make([]float64, len(pts))
	m.PredictProbBatchInto(probs, pts)
	m.PredictLabelBatchInto(labels, pts)
	for i, x := range pts {
		dec := decision(m, x)
		if want := 1 / (1 + math.Exp(-2*dec)); probs[i] != want {
			t.Fatalf("point %d: batch prob %v != per-point %v", i, probs[i], want)
		}
		wantLabel := 0.0
		if dec > 0 {
			wantLabel = 1
		}
		if labels[i] != wantLabel {
			t.Fatalf("point %d: batch label %v != per-point %v", i, labels[i], wantLabel)
		}
	}
}
