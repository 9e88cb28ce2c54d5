package prim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/sd"
)

// diffDataset draws n points with m continuous inputs and a noisy
// two-feature interaction label.
func diffDataset(n, m int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		if row[0] < 0.6 && row[m/2] > 0.25 {
			y[i] = 1
		}
		if rng.Float64() < 0.05 {
			y[i] = 1 - y[i]
		}
	}
	return dataset.MustNew(x, y)
}

func sameTrajectory(t *testing.T, name string, got, want *sd.Result) {
	t.Helper()
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("%s: %d steps, want %d", name, len(got.Steps), len(want.Steps))
	}
	if got.FinalIndex != want.FinalIndex {
		t.Fatalf("%s: final index %d, want %d", name, got.FinalIndex, want.FinalIndex)
	}
	for i := range got.Steps {
		if !reflect.DeepEqual(got.Steps[i].Box.Lo, want.Steps[i].Box.Lo) ||
			!reflect.DeepEqual(got.Steps[i].Box.Hi, want.Steps[i].Box.Hi) {
			t.Fatalf("%s: step %d box differs\ngot:  %v\nwant: %v", name, i, got.Steps[i].Box, want.Steps[i].Box)
		}
		if got.Steps[i].Train != want.Steps[i].Train || got.Steps[i].Val != want.Steps[i].Val {
			t.Fatalf("%s: step %d stats differ", name, i)
		}
	}
}

// TestFastPeelerMatchesReference peels seeded random datasets with the
// presorted columnar engine (at the test's GOMAXPROCS and at 4) and
// with the original quickselect implementation, asserting
// byte-identical trajectories: every box bound, every step statistic,
// the selected final box.
func TestFastPeelerMatchesReference(t *testing.T) {
	configs := []Peeler{
		{},
		{Alpha: 0.1, MinPoints: 10},
		{Objective: ObjectiveLift},
		{Alpha: 0.03, Paste: true},
	}
	for ci, base := range configs {
		for _, seed := range []int64{1, 7, 42} {
			d := diffDataset(800, 6, seed)
			val := diffDataset(400, 6, seed+100)

			want := discoverReference(base, d, val)

			fast := base
			got, err := fast.Discover(d, val, nil)
			if err != nil {
				t.Fatalf("config %d seed %d: fast: %v", ci, seed, err)
			}
			sameTrajectory(t, "serial fast", got, want)

			prev := runtime.GOMAXPROCS(4)
			got, err = fast.Discover(d, val, nil)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("config %d seed %d: parallel: %v", ci, seed, err)
			}
			sameTrajectory(t, "parallel fast", got, want)
		}
	}
}

// TestFastPeelerMatchesReferenceWithTies exercises tied values (a
// discretized column and bootstrap-style duplicated rows, then the
// bootstrap replicas bumping peels, one by one), where the tie-grouped
// removal logic has to agree between the two paths.
func TestFastPeelerMatchesReferenceWithTies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 500, 4
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		if i%5 == 0 && i > 0 {
			x[i] = x[i-1] // duplicated row, as bumping's bootstraps produce
			y[i] = y[i-1]
			continue
		}
		row := make([]float64, m)
		for j := range row {
			if j == 1 {
				row[j] = float64(rng.Intn(5)) / 4 // discretized: heavy ties
			} else {
				row[j] = rng.Float64()
			}
		}
		x[i] = row
		if row[0] < 0.6 && row[2] > 0.25 {
			y[i] = 1
		}
	}
	d := dataset.MustNew(x, y)

	got, err := (&Peeler{}).Discover(d, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory(t, "ties", got, discoverReference(Peeler{}, d, d))

	// Bumping's replicas, drawn as Bumping.Discover draws them for
	// &Bumping{Q: 12, SubsetSize: 3, MinPoints: 10} from seed 9.
	train := diffDataset(300, 5, 11)
	rng = rand.New(rand.NewSource(9))
	peeler := Peeler{MinPoints: 10}
	for rep := 0; rep < 12; rep++ {
		bs := train.Bootstrap(rng)
		cols := rng.Perm(train.M())[:3]
		sort.Ints(cols)
		sub := bs.SelectColumns(cols)
		got, err := peeler.Discover(sub, sub, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameTrajectory(t, fmt.Sprintf("bumping replica %d", rep), got, discoverReference(peeler, sub, sub))
	}
}

// TestFastPeelerMatchesReferenceProbLabels repeats the comparison with
// fractional labels — the engine's ProbLabels mode hands PRIM raw
// metamodel probabilities — where candidate scores are sums of
// non-identical floats and summation order matters most.
func TestFastPeelerMatchesReferenceProbLabels(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99} {
		rng := rand.New(rand.NewSource(seed))
		n, m := 800, 6
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			row := make([]float64, m)
			for j := range row {
				row[j] = rng.Float64()
			}
			x[i] = row
			// A smooth probability surface peaking in the target region.
			y[i] = 1 / (1 + 40*(row[0]-0.3)*(row[0]-0.3) + 40*(row[m/2]-0.7)*(row[m/2]-0.7))
		}
		d := dataset.MustNew(x, y)

		got, err := (&Peeler{}).Discover(d, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameTrajectory(t, "prob labels", got, discoverReference(Peeler{}, d, d))
	}
}

// TestParallelBumpingMatchesSerial runs bumping at GOMAXPROCS 4 against
// a serial run at GOMAXPROCS 1 from identical seeds and asserts
// byte-identical results. TestFastPeelerMatchesReferenceWithTies checks
// the same replicas' peels against the reference peeler.
func TestParallelBumpingMatchesSerial(t *testing.T) {
	d := diffDataset(300, 5, 11)
	val := diffDataset(200, 5, 12)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := &Bumping{Q: 12, SubsetSize: 3, MinPoints: 10}
	want, err := b.Discover(d, val, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(4)
	got, err := b.Discover(d, val, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	sameTrajectory(t, "parallel bumping", got, want)
}
