package svm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/metamodel"
)

func blobs(n int, rng *rand.Rand) *dataset.Dataset {
	// Two Gaussian blobs with a clear margin.
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		if i%2 == 0 {
			x[i] = []float64{0.25 + 0.08*rng.NormFloat64(), 0.25 + 0.08*rng.NormFloat64()}
			y[i] = 0
		} else {
			x[i] = []float64{0.75 + 0.08*rng.NormFloat64(), 0.75 + 0.08*rng.NormFloat64()}
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

func ring(n int, rng *rand.Rand) *dataset.Dataset {
	// Nonlinear problem: positive inside a disk, negative in a ring.
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		d := (x[i][0]-0.5)*(x[i][0]-0.5) + (x[i][1]-0.5)*(x[i][1]-0.5)
		if d < 0.09 {
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

func TestSeparableBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := blobs(200, rng)
	test := blobs(400, rng)
	m, err := (&Trainer{C: 10}).Train(train, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := metamodel.Accuracy(m, test); acc < 0.97 {
		t.Errorf("blob accuracy = %.3f, want >= 0.97", acc)
	}
}

func TestNonlinearRing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := ring(400, rng)
	test := ring(800, rng)
	m, err := (&Trainer{C: 10, Gamma: 20}).Train(train, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := metamodel.Accuracy(m, test); acc < 0.9 {
		t.Errorf("ring accuracy = %.3f, want >= 0.9 (RBF should separate a disk)", acc)
	}
}

func TestDecisionConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := (&Trainer{}).Train(blobs(100, rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	sm := m.(*Model)
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		dec := sm.Decision(x)
		if (dec > 0) != (sm.PredictLabel(x) == 1) {
			t.Fatal("label inconsistent with decision sign")
		}
		p := sm.PredictProb(x)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("prob %g invalid", p)
		}
		if (dec > 0) != (p > 0.5) {
			t.Fatal("probability inconsistent with decision sign")
		}
	}
	if sm.NumSupport() == 0 || sm.NumSupport() > 100 {
		t.Errorf("support vectors = %d", sm.NumSupport())
	}
}

func TestSingleClassDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := [][]float64{{0.1, 0.1}, {0.2, 0.5}, {0.9, 0.3}}
	m, err := (&Trainer{}).Train(dataset.MustNew(x, []float64{1, 1, 1}), rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.PredictLabel([]float64{0.5, 0.5}) != 1 {
		t.Error("all-positive training must predict 1")
	}
	m0, err := (&Trainer{}).Train(dataset.MustNew(x, []float64{0, 0, 0}), rng)
	if err != nil {
		t.Fatal(err)
	}
	if m0.PredictLabel([]float64{0.5, 0.5}) != 0 {
		t.Error("all-negative training must predict 0")
	}
}

func TestTrainErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := (&Trainer{}).Train(dataset.MustNew([][]float64{{1, 2}}, []float64{1}), rng); err == nil {
		t.Error("single example must error")
	}
}

func TestScaleGamma(t *testing.T) {
	d := blobs(100, rand.New(rand.NewSource(6)))
	g := scaleGamma(d)
	if g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		t.Errorf("scaleGamma = %g", g)
	}
	// Constant inputs: variance floor keeps gamma finite.
	dc := dataset.MustNew([][]float64{{1, 1}, {1, 1}}, []float64{0, 1})
	if g := scaleGamma(dc); math.IsInf(g, 0) {
		t.Error("gamma must stay finite for constant inputs")
	}
}

func TestKernelCacheModes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([][]float64, 5)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
	}
	full := newKernelCache(x, 1, 5)
	part := &kernelCache{x: x, gamma: 1, part: map[int][]float64{}, limit: 2}
	for i := 0; i < 5; i++ {
		rf := full.row(i)
		rp := part.row(i)
		for j := range rf {
			if math.Abs(rf[j]-rp[j]) > 1e-15 {
				t.Fatal("cache modes disagree")
			}
		}
		if math.Abs(rf[i]-1) > 1e-15 {
			t.Error("K(x,x) must be 1 for RBF")
		}
	}
	if len(part.part) > 2 {
		t.Errorf("LRU cache grew to %d rows, limit 2", len(part.part))
	}
}

func TestTunedTrainer(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := blobs(120, rng)
	m, err := TunedTrainer().Train(d, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := metamodel.Accuracy(m, d); acc < 0.95 {
		t.Errorf("tuned accuracy = %.3f", acc)
	}
}

// TestZeroValueDefaults pins the zero Trainer to its documented
// defaults: it must train the same model from the same seed.
func TestZeroValueDefaults(t *testing.T) {
	d := svmTrainData(300, 4, 5)
	explicit := Trainer{C: 1, Gamma: scaleGamma(d), Tol: 1e-3, MaxPasses: 5}
	got, err := (&Trainer{}).Train(d, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := explicit.Train(d, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := want.(*Model); !ok {
		t.Fatalf("training collapsed to a constant model: %T", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Trainer{} trains a different model than %+v", explicit)
	}
}
