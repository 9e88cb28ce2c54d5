package gbt

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/sample"
)

func boxData(n int, rng *rand.Rand) *dataset.Dataset {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if x[i][0] < 0.5 && x[i][1] > 0.3 {
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

func TestBoostingLearnsBox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := boxData(400, rng)
	test := boxData(1000, rng)
	m, err := (&Trainer{Rounds: 80}).Train(train, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := metamodel.Accuracy(m, test); acc < 0.92 {
		t.Errorf("box accuracy = %.3f, want >= 0.92", acc)
	}
}

func TestProbabilitiesValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := (&Trainer{Rounds: 30}).Train(boxData(200, rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([][]float64, 200)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	labels := metamodel.PredictLabelBatch(m, pts)
	for i, p := range metamodel.PredictProbBatch(m, pts) {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("prob %g invalid", p)
		}
		if (p > 0.5) != (labels[i] == 1) {
			t.Fatal("label inconsistent with probability")
		}
	}
}

func TestTrainingLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := boxData(300, rng)
	logLoss := func(m metamodel.Model) float64 {
		s := 0.0
		for i, p := range metamodel.PredictProbBatch(m, d.X) {
			p = math.Min(math.Max(p, 1e-9), 1-1e-9)
			if d.Y[i] >= 0.5 {
				s -= math.Log(p)
			} else {
				s -= math.Log(1 - p)
			}
		}
		return s / float64(d.N())
	}
	m5, _ := (&Trainer{Rounds: 5}).Train(d, rand.New(rand.NewSource(4)))
	m80, _ := (&Trainer{Rounds: 80}).Train(d, rand.New(rand.NewSource(4)))
	if logLoss(m80) >= logLoss(m5) {
		t.Errorf("training loss did not decrease: %g -> %g", logLoss(m5), logLoss(m80))
	}
}

func TestConstantLabels(t *testing.T) {
	x := [][]float64{{0.1}, {0.2}, {0.3}, {0.4}}
	d := dataset.MustNew(x, []float64{0, 0, 0, 0})
	m, err := (&Trainer{Rounds: 10}).Train(d, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{0.25}}
	if l := metamodel.PredictLabelBatch(m, probe)[0]; l != 0 {
		t.Errorf("constant-0 data predicts %g", l)
	}
	if p := metamodel.PredictProbBatch(m, probe)[0]; p > 0.05 {
		t.Errorf("constant-0 prob = %g, want near 0", p)
	}
}

func TestTrainErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := (&Trainer{}).Train(dataset.MustNew([][]float64{{1}}, []float64{1}), rng); err == nil {
		t.Error("single example must error")
	}
}

func TestBoostingBeatsBaseRateOnSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := funcs.Hart3
	train := funcs.Generate(f, 300, sample.LatinHypercube{}, rng)
	test := funcs.Generate(f, 2000, sample.Uniform{}, rng)
	m, err := (&Trainer{}).Train(train, rng)
	if err != nil {
		t.Fatal(err)
	}
	acc := metamodel.Accuracy(m, test)
	base := math.Max(test.PositiveShare(), 1-test.PositiveShare())
	if acc <= base+0.05 {
		t.Errorf("accuracy %.3f does not beat base rate %.3f", acc, base)
	}
}

func TestTunedTrainer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := boxData(150, rng)
	m, err := TunedTrainer().Train(d, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc := metamodel.Accuracy(m, d); acc < 0.9 {
		t.Errorf("tuned accuracy = %.3f", acc)
	}
}

// TestTunedWorkersBitIdentical: GOMAXPROCS cannot change the ensemble
// the tuner returns, exact or binned.
func TestTunedWorkersBitIdentical(t *testing.T) {
	d := noisyData(240, 6, 31)
	probe := noisyData(300, 6, 32)
	for _, mk := range []func() metamodel.Trainer{
		TunedTrainer,
		func() metamodel.Trainer { return TunedTrainerBinned(0) },
	} {
		var want []float64
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			tu := mk().(*metamodel.Tuned)
			m, err := tu.Train(d, rand.New(rand.NewSource(33)))
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
					t.Fatalf("%T GOMAXPROCS=%d: point %d predicts %v, GOMAXPROCS=1 %v", tu.Grid[0], procs, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMarginAdditivity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := boxData(100, rng)
	m, _ := (&Trainer{Rounds: 12}).Train(d, rng)
	gm := m.(*Model)
	x := []float64{0.2, 0.6, 0.5}
	want := gm.base
	for _, tree := range gm.table.Decode() {
		want += gm.eta * tree[flattree.Descend(tree, x)].Value
	}
	var got [1]float64
	gm.table.SumInto(got[:], [][]float64{x}, len(x), gm.base, gm.eta)
	if math.Abs(got[0]-want) > 1e-12 {
		t.Errorf("margin = %g, want %g", got[0], want)
	}
}

// TestZeroValueDefaults pins the zero Trainer to its documented
// defaults: it must train the same table, base and shrinkage.
// Train ignores its RNG, so both calls pass nil.
func TestZeroValueDefaults(t *testing.T) {
	d := diffDataset(300, 6, 3)
	explicit := Trainer{Rounds: 100, LearningRate: 0.3, MaxDepth: 4, Lambda: 1, MinChildWeight: 1}
	got, err := (&Trainer{}).Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := explicit.Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Trainer{} trains a different model than %+v", explicit)
	}
}
