package rf

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/dataset"
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

func TestForestLearnsBox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := boxData(400, rng)
	test := boxData(1000, rng)
	m, err := (&Trainer{NTrees: 60}).Train(train, rng)
	if err != nil {
		t.Fatal(err)
	}
	acc := metamodel.Accuracy(m, test)
	if acc < 0.9 {
		t.Errorf("box accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestForestProbabilitiesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := boxData(200, rng)
	m, err := (&Trainer{NTrees: 30}).Train(train, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		p := m.PredictProb(x)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("prob %g out of range", p)
		}
		l := m.PredictLabel(x)
		if (p > 0.5) != (l == 1) {
			t.Fatalf("label %g inconsistent with prob %g", l, p)
		}
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	d := boxData(150, rand.New(rand.NewSource(3)))
	m1, _ := (&Trainer{NTrees: 20}).Train(d, rand.New(rand.NewSource(7)))
	m2, _ := (&Trainer{NTrees: 20}).Train(d, rand.New(rand.NewSource(7)))
	for i := 0; i < 50; i++ {
		x := []float64{float64(i) / 50, 0.4, 0.6}
		if m1.PredictProb(x) != m2.PredictProb(x) {
			t.Fatal("forest must be deterministic for a fixed seed")
		}
	}
}

func TestForestImprovesWithData(t *testing.T) {
	// Learning-curve sanity: accuracy at N=400 should be no worse than
	// at N=50 on the smooth borehole response (allowing small noise).
	rng := rand.New(rand.NewSource(4))
	f := funcs.Borehole
	small := funcs.Generate(f, 50, sample.LatinHypercube{}, rng)
	large := funcs.Generate(f, 400, sample.LatinHypercube{}, rng)
	test := funcs.Generate(f, 2000, sample.Uniform{}, rng)
	ms, _ := (&Trainer{NTrees: 60}).Train(small, rng)
	ml, _ := (&Trainer{NTrees: 60}).Train(large, rng)
	accS := metamodel.Accuracy(ms, test)
	accL := metamodel.Accuracy(ml, test)
	if accL+0.02 < accS {
		t.Errorf("accuracy shrank with more data: %0.3f -> %0.3f", accS, accL)
	}
	if accL < 0.85 {
		t.Errorf("N=400 borehole accuracy = %.3f, want >= 0.85", accL)
	}
}

func TestTrainErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, err := (&Trainer{}).Train(dataset.MustNew([][]float64{{1}}, []float64{1}), rng)
	if err == nil {
		t.Error("single-example training must error")
	}
}

func TestPureNodeIsLeaf(t *testing.T) {
	// All labels equal: the tree must be a single leaf predicting the
	// constant.
	x := [][]float64{{0.1}, {0.5}, {0.9}, {0.3}, {0.8}, {0.2}, {0.4}, {0.6}, {0.7}, {0.55}}
	y := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	d := dataset.MustNew(x, y)
	m, err := (&Trainer{NTrees: 5}).Train(d, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if p := m.PredictProb([]float64{0.42}); p != 1 {
		t.Errorf("constant forest predicts %g, want 1", p)
	}
}

func TestTunedTrainerGrid(t *testing.T) {
	tr := TunedTrainer(9)
	tuned, ok := tr.(*metamodel.Tuned)
	if !ok {
		t.Fatal("TunedTrainer must return *metamodel.Tuned")
	}
	// For M=9: sqrt=3, M/3=3, 2M/3=6 -> {3, 6} deduplicated.
	if len(tuned.Grid) != 2 {
		t.Errorf("grid size = %d, want 2", len(tuned.Grid))
	}
	rng := rand.New(rand.NewSource(7))
	d := boxData(120, rng)
	// Works end to end even when M of data (3) < candidate mtry values.
	if _, err := TunedTrainer(3).Train(d, rng); err != nil {
		t.Fatal(err)
	}
}

// TestTunedWorkersBitIdentical: GOMAXPROCS cannot change the forest the
// tuner returns, exact or binned.
func TestTunedWorkersBitIdentical(t *testing.T) {
	d := randomDataset(240, 6, 31)
	probe := randomDataset(300, 6, 32)
	for _, mk := range []func() metamodel.Trainer{
		func() metamodel.Trainer { return TunedTrainer(d.M()) },
		func() metamodel.Trainer { return TunedTrainerBinned(d.M(), 0) },
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

// TestTunedTrainGoroutineBound: tuning cells and the trees they grow
// share the process's compute budget, so a tuned rf train at
// GOMAXPROCS 2 runs at most one goroutine beyond the test's own, exact
// or binned.
func TestTunedTrainGoroutineBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := randomDataset(1600, 10, 41)
	for _, tr := range []metamodel.Trainer{TunedTrainer(d.M()), TunedTrainerBinned(d.M(), 0)} {
		stop, peak := make(chan struct{}), make(chan int)
		go func() {
			most := 0
			for {
				select {
				case <-stop:
					peak <- most
					return
				default:
				}
				// A helper that has released its slot is still counted
				// for the few instructions it takes to exit, while the
				// next helper may already have started: a new peak
				// counts only at its lowest level over 5 ms.
				n := runtime.NumGoroutine()
				for until := time.Now().Add(5 * time.Millisecond); n > most && time.Now().Before(until); {
					runtime.Gosched()
					n = min(n, runtime.NumGoroutine())
				}
				most = max(most, n)
			}
		}()
		own := runtime.NumGoroutine() // the sampler included
		if _, err := tr.Train(d, rand.New(rand.NewSource(42))); err != nil {
			t.Fatal(err)
		}
		close(stop)
		if extra := <-peak - own; extra > 1 {
			t.Errorf("%T: training peaked at %d goroutines beyond the test's own, want at most 1", tr.(*metamodel.Tuned).Grid[0], extra)
		}
	}
}

// TestTuningKeyFrozen pins the tuning identity of the shipped rf grid
// shapes. metamodel.Tuned seeds every cross-validation cell from this
// text, so changing it changes tuned rf results.
func TestTuningKeyFrozen(t *testing.T) {
	cases := []struct {
		tr   metamodel.Trainer
		want string
	}{
		{TunedTrainer(8).(*metamodel.Tuned).Grid[0], "*rf.Trainer&{NTrees:0 MTry:2 MinLeaf:0 MaxDepth:0 Reference:false}"},
		{TunedTrainer(8).(*metamodel.Tuned).Grid[1], "*rf.Trainer&{NTrees:0 MTry:5 MinLeaf:0 MaxDepth:0 Reference:false}"},
		{TunedTrainer(10).(*metamodel.Tuned).Grid[0], "*rf.Trainer&{NTrees:0 MTry:3 MinLeaf:0 MaxDepth:0 Reference:false}"},
		{TunedTrainer(10).(*metamodel.Tuned).Grid[1], "*rf.Trainer&{NTrees:0 MTry:6 MinLeaf:0 MaxDepth:0 Reference:false}"},
		{TunedTrainerBinned(10, 0).(*metamodel.Tuned).Grid[0], "*rf.BinnedTrainer&{Trainer:{NTrees:0 MTry:3 MinLeaf:0 MaxDepth:0 Reference:false} Bins:0}"},
		{TunedTrainerBinned(10, 0).(*metamodel.Tuned).Grid[1], "*rf.BinnedTrainer&{Trainer:{NTrees:0 MTry:6 MinLeaf:0 MaxDepth:0 Reference:false} Bins:0}"},
		{TunedTrainerBinned(8, 64).(*metamodel.Tuned).Grid[1], "*rf.BinnedTrainer&{Trainer:{NTrees:0 MTry:5 MinLeaf:0 MaxDepth:0 Reference:false} Bins:64}"},
		{&Trainer{NTrees: 500, MTry: 3, MinLeaf: 2, MaxDepth: 4}, "*rf.Trainer&{NTrees:500 MTry:3 MinLeaf:2 MaxDepth:4 Reference:false}"},
	}
	for i, c := range cases {
		if got := c.tr.(interface{ TuningKey() string }).TuningKey(); got != c.want {
			t.Errorf("case %d: tuning key %q, want %q", i, got, c.want)
		}
	}
}

func TestIntSqrt(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3, 10: 3, 20: 4, 25: 5}
	for in, want := range cases {
		if got := intSqrt(in); got != want {
			t.Errorf("intSqrt(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestImportanceFindsRelevantFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	d := boxData(500, rng) // features 0 and 1 relevant, 2 inert
	m, err := (&Trainer{NTrees: 40}).Train(d, rng)
	if err != nil {
		t.Fatal(err)
	}
	imp := m.(*Forest).Importance()
	if len(imp) != 3 {
		t.Fatalf("importance length %d", len(imp))
	}
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance sums to %g, want 1", sum)
	}
	if imp[0] < 5*imp[2] || imp[1] < 5*imp[2] {
		t.Errorf("relevant features not dominant: %v", imp)
	}
}

// TestZeroValueDefaults pins the zero Trainer to its documented
// defaults: it must grow the same forest from the same seed.
func TestZeroValueDefaults(t *testing.T) {
	d := randomDataset(300, 6, 3)
	explicit := Trainer{NTrees: 100, MTry: d.M() / 3, MinLeaf: 5}
	got, err := (&Trainer{}).Train(d, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := explicit.Train(d, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Trainer{} grows a different forest than %+v", explicit)
	}
}
