package svm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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
	pts := make([][]float64, 100)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64()}
	}
	probs := metamodel.PredictProbBatch(sm, pts)
	labels := metamodel.PredictLabelBatch(sm, pts)
	for i, x := range pts {
		dec := decision(sm, x)
		if (dec > 0) != (labels[i] == 1) {
			t.Fatal("label inconsistent with decision sign")
		}
		p := probs[i]
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
	probe := [][]float64{{0.5, 0.5}}
	if metamodel.PredictLabelBatch(m, probe)[0] != 1 {
		t.Error("all-positive training must predict 1")
	}
	m0, err := (&Trainer{}).Train(dataset.MustNew(x, []float64{0, 0, 0}), rng)
	if err != nil {
		t.Fatal(err)
	}
	if metamodel.PredictLabelBatch(m0, probe)[0] != 0 {
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

// TestTunedWorkersBitIdentical: GOMAXPROCS cannot change the model the
// tuner returns, though its fold × grid cells fan out on par.For. Every
// fifth label is flipped so the grid's CV accuracies differ, and a
// selection that depended on the cells' schedule would show.
func TestTunedWorkersBitIdentical(t *testing.T) {
	d := svmTrainData(240, 5, 31)
	for i := 0; i < d.N(); i += 5 {
		d.Y[i] = 1 - d.Y[i]
	}
	probe := svmTrainData(300, 5, 32)
	var want []float64
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		m, err := TunedTrainer().Train(d, rand.New(rand.NewSource(33)))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := metamodel.PredictProbBatch(m, probe.X)
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("GOMAXPROCS=%d: point %d predicts %v, GOMAXPROCS=1 %v", procs, i, got[i], want[i])
			}
		}
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
	if want.(*Model).NumSupport() == 0 {
		t.Fatal("training collapsed to a constant model")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Trainer{} trains a different model than %+v", explicit)
	}
}

// TestCollapsedModels: a single-class training set and a fit that
// leaves every α at zero (a KKT tolerance no example violates) both
// give a *Model without support vectors that scores and labels every
// point, NaN and ±Inf included, exactly as its class, before and after
// a codec round trip.
func TestCollapsedModels(t *testing.T) {
	x := [][]float64{{0.1, 0.2}, {0.8, 0.9}, {0.4, 0.6}}
	cases := []struct {
		name    string
		trainer Trainer
		y       []float64
		class   float64
	}{
		{"single class 1", Trainer{}, []float64{1, 1, 1}, 1},
		{"single class 0", Trainer{}, []float64{0, 0, 0}, 0},
		{"zero alphas, majority 1", Trainer{Tol: math.Inf(1)}, []float64{1, 0, 1}, 1},
		{"zero alphas, majority 0", Trainer{Tol: math.Inf(1)}, []float64{1, 0, 0}, 0},
	}
	pts := [][]float64{{0.5, 0.5}, {math.NaN(), 0}, {math.Inf(1), math.Inf(-1)}, {0, math.Copysign(0, -1)}}
	for _, c := range cases {
		trained, err := c.trainer.Train(dataset.MustNew(x, c.y), rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		m := trained.(*Model)
		data, _ := m.MarshalBinary()
		decoded, err := UnmarshalModel(data, len(x[0]))
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		for _, m := range []*Model{m, decoded} {
			if m.NumSupport() != 0 {
				t.Fatalf("%s: %d support vectors, want none", c.name, m.NumSupport())
			}
			probs, labels := make([]float64, len(pts)), make([]float64, len(pts))
			m.PredictProbBatchInto(probs, pts)
			m.PredictLabelBatchInto(labels, pts)
			for i, x := range pts {
				for _, got := range []float64{probs[i], labels[i]} {
					if got != c.class {
						t.Fatalf("%s: point %v scored %v, want %v", c.name, x, got, c.class)
					}
				}
			}
		}
	}
}

// TestUnmarshalModelRejectsMalformed: a payload is rejected unless its
// width is the training width and its matrix is width × support
// vectors.
func TestUnmarshalModelRejectsMalformed(t *testing.T) {
	d := svmTrainData(200, 3, 8)
	trained, err := (&Trainer{}).Train(d, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	good, _ := trained.(*Model).MarshalBinary()
	if _, err := UnmarshalModel(good, 3); err != nil {
		t.Fatalf("the uncorrupted model does not decode: %v", err)
	}
	withCount := func(nsv int) []byte {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[4:], uint32(nsv))
		return b
	}
	nsv := trained.(*Model).NumSupport()
	for name, c := range map[string]struct {
		data  []byte
		width int
	}{
		"other training width":   {good, 4},
		"short header":           {good[:23], 3},
		"matrix one value long":  {append(append([]byte(nil), good...), make([]byte, 8)...), 3},
		"matrix one value short": {good[:len(good)-8], 3},
		"one vector more":        {withCount(nsv + 1), 3},
		"one vector fewer":       {withCount(nsv - 1), 3},
	} {
		if _, err := UnmarshalModel(c.data, c.width); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
