package metamodel

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestTunedWorkersDeterministic asserts that the concurrent fold × grid
// evaluation selects the same model at every GOMAXPROCS: per-cell seeds
// and the fixed-order reduction make the pool's scheduling invisible in
// the outcome.
func TestTunedWorkersDeterministic(t *testing.T) {
	grid := []Trainer{
		noisyTrainer{cut: 0.5, extraDraws: 1},
		noisyTrainer{cut: 0.7, extraDraws: 3},
		noisyTrainer{cut: 0.9, extraDraws: 7},
	}
	train := func(procs int) thresholdModel {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d := stepData(300, 0.5, rand.New(rand.NewSource(99)))
		m, err := (&Tuned{Family: "noisy", Grid: grid}).Train(d, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		return m.(thresholdModel)
	}
	serial := train(1)
	for _, procs := range []int{1, 2, 4, 16} {
		if got := train(procs); got != serial {
			t.Errorf("GOMAXPROCS=%d selected %v, serial selected %v", procs, got, serial)
		}
	}
}
