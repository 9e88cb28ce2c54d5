package metamodel

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
)

// thresholdModel is a trivial model: y = 1 iff x[0] > cut.
type thresholdModel struct{ cut float64 }

func (m thresholdModel) label(x []float64) float64 {
	if x[0] > m.cut {
		return 1
	}
	return 0
}

func (m thresholdModel) prob(x []float64) float64 {
	if x[0] > m.cut {
		return 0.9
	}
	return 0.1
}

func (m thresholdModel) PredictProbBatchInto(dst []float64, pts [][]float64) {
	for i, x := range pts {
		dst[i] = m.prob(x)
	}
}

func (m thresholdModel) PredictLabelBatchInto(dst []float64, pts [][]float64) {
	for i, x := range pts {
		dst[i] = m.label(x)
	}
}

func (thresholdModel) ApproxMemoryBytes() int64 { return 0 }

// cutTrainer "learns" nothing: it returns a fixed threshold model. Useful
// to test the tuner's selection logic.
type cutTrainer struct{ cut float64 }

func (t cutTrainer) Name() string { return "cut" }
func (t cutTrainer) Train(*dataset.Dataset, *rand.Rand) (Model, error) {
	return thresholdModel{t.cut}, nil
}

type failTrainer struct{}

func (failTrainer) Name() string { return "fail" }
func (failTrainer) Train(*dataset.Dataset, *rand.Rand) (Model, error) {
	return nil, errors.New("boom")
}

func stepData(n int, cut float64, rng *rand.Rand) *dataset.Dataset {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		v := rng.Float64()
		x[i] = []float64{v, rng.Float64()}
		if v > cut {
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

func TestAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := stepData(200, 0.5, rng)
	if acc := Accuracy(thresholdModel{0.5}, d); acc != 1 {
		t.Errorf("perfect model accuracy = %g, want 1", acc)
	}
	if acc := Accuracy(thresholdModel{-1}, d); acc > 0.65 {
		t.Errorf("always-1 model accuracy = %g, want ~0.5", acc)
	}
	if acc := Accuracy(thresholdModel{0.5}, dataset.MustNew(nil, nil)); acc != 0 {
		t.Errorf("empty dataset accuracy = %g", acc)
	}
}

func TestBatchPredictionMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := stepData(500, 0.3, rng)
	m := thresholdModel{0.3}
	probs := PredictProbBatch(m, d.X)
	labels := PredictLabelBatch(m, d.X)
	for i, x := range d.X {
		if probs[i] != m.prob(x) || labels[i] != m.label(x) {
			t.Fatalf("batch mismatch at %d", i)
		}
	}
	// Tiny inputs exercise the serial path.
	one := PredictProbBatch(m, d.X[:1])
	if len(one) != 1 || one[0] != m.prob(d.X[0]) {
		t.Error("single-point batch wrong")
	}
	if out := PredictProbBatch(m, nil); len(out) != 0 {
		t.Error("empty batch should be empty")
	}
}

func TestTunedPicksBestGridEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := stepData(300, 0.5, rng)
	tuned := &Tuned{Family: "cut", Grid: []Trainer{
		cutTrainer{0.05}, cutTrainer{0.5}, cutTrainer{0.95},
	}}
	m, err := tuned.Train(d, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(m, d); acc < 0.99 {
		t.Errorf("tuner picked accuracy %g, want the 0.5 cut (acc 1)", acc)
	}
	if tuned.Name() != "cut" {
		t.Errorf("Name = %q", tuned.Name())
	}
}

func TestTunedEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := (&Tuned{Family: "x"}).Train(stepData(10, 0.5, rng), rng); err == nil {
		t.Error("empty grid must error")
	}
	// Single entry skips CV entirely.
	m, err := (&Tuned{Family: "x", Grid: []Trainer{cutTrainer{0.5}}}).Train(stepData(10, 0.5, rng), rng)
	if err != nil || m == nil {
		t.Errorf("single-entry grid: %v", err)
	}
	// Failing trainer propagates the error.
	bad := &Tuned{Family: "x", Grid: []Trainer{failTrainer{}, cutTrainer{0.5}}}
	if _, err := bad.Train(stepData(60, 0.5, rng), rng); err == nil {
		t.Error("failing grid entry must propagate")
	}
	// Tiny dataset falls back to the first entry instead of CV.
	tiny := stepData(2, 0.5, rng)
	if _, err := (&Tuned{Family: "x", Folds: 5, Grid: []Trainer{cutTrainer{0.1}, cutTrainer{0.9}}}).Train(tiny, rng); err != nil {
		t.Errorf("tiny dataset fallback failed: %v", err)
	}
}
