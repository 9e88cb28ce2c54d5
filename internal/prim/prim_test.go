package prim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/sd"
)

// boxData labels y=1 inside [0, 0.5] x [0.3, 1] of the first two of m
// inputs.
func boxData(n, m int, rng *rand.Rand) *dataset.Dataset {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		if row[0] < 0.5 && row[1] > 0.3 {
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

func TestPeelFindsTheBox(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := boxData(600, 4, rng)
	res, err := (&Peeler{}).Discover(d, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	final := res.Final()
	// The final box should be precise: nearly all covered points are 1.
	st := sd.Compute(final, d)
	if st.Precision() < 0.9 {
		t.Errorf("final precision = %.3f, want >= 0.9", st.Precision())
	}
	// It should restrict (at least) the two relevant inputs.
	if !final.RestrictedDim(0) || !final.RestrictedDim(1) {
		t.Errorf("final box %v does not restrict the relevant inputs", final)
	}
}

func TestTrajectoryInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := boxData(400, 3, rng)
	res, err := (&Peeler{Alpha: 0.07, MinPoints: 25}).Discover(d, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) < 2 {
		t.Fatal("trajectory too short")
	}
	for k := 1; k < len(res.Steps); k++ {
		prev, cur := res.Steps[k-1], res.Steps[k]
		if !prev.Box.CoversBox(cur.Box) {
			t.Fatalf("step %d not nested inside step %d", k, k-1)
		}
		if cur.Train.N >= prev.Train.N {
			t.Fatalf("step %d did not shrink the subgroup: %d -> %d", k, prev.Train.N, cur.Train.N)
		}
		if cur.Train.N < 25 {
			t.Fatalf("step %d violates the support floor: %d < 25", k, cur.Train.N)
		}
	}
	first := res.Steps[0]
	if first.Box.Restricted() != 0 || first.Train.N != d.N() {
		t.Error("trajectory must start with the full box")
	}
}

func TestFinalSelectionUsesValidation(t *testing.T) {
	// Construct a validation set that only rewards the full box: the
	// final box must then be an early step.
	rng := rand.New(rand.NewSource(3))
	train := boxData(300, 2, rng)
	// Validation with all labels 1: every box has precision 1; ties are
	// broken toward the earliest (largest) box.
	x := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 1
	}
	val := dataset.MustNew(x, y)
	res, err := (&Peeler{}).Discover(train, val, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalIndex != 0 {
		t.Errorf("all-ties selection picked step %d, want 0", res.FinalIndex)
	}
}

func TestAlphaValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := boxData(50, 2, rng)
	for _, alpha := range []float64{-0.1, 1, 1.5} {
		if _, err := (&Peeler{Alpha: alpha}).Discover(d, d, rng); err == nil {
			t.Errorf("alpha %g must be rejected", alpha)
		}
	}
	if _, err := (&Peeler{}).Discover(dataset.MustNew(nil, nil), d, rng); err == nil {
		t.Error("empty train must be rejected")
	}
	if _, err := (&Peeler{}).Discover(d, boxData(30, 3, rng), rng); err == nil {
		t.Error("dimension mismatch must be rejected")
	}
}

func TestPeelHandlesTies(t *testing.T) {
	// Discrete-valued input: many ties. Peeling must terminate and make
	// progress.
	rng := rand.New(rand.NewSource(5))
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	levels := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for i := range x {
		x[i] = []float64{levels[rng.Intn(5)], levels[rng.Intn(5)]}
		if x[i][0] <= 0.3 {
			y[i] = 1
		}
	}
	d := dataset.MustNew(x, y)
	res, err := (&Peeler{}).Discover(d, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := sd.Compute(res.Final(), d)
	if st.Precision() < 0.9 {
		t.Errorf("tie-heavy precision = %.3f", st.Precision())
	}
}

func TestPureDataStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = []float64{rng.Float64()}
		y[i] = 1
	}
	d := dataset.MustNew(x, y)
	res, err := (&Peeler{}).Discover(d, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	// All-1 labels: every peel leaves mean 1; trajectory still respects
	// the support floor and final selection favors the full box.
	if res.FinalIndex != 0 {
		t.Errorf("final index = %d, want 0 (ties favor recall)", res.FinalIndex)
	}
}

func TestQuickselect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed ^ rng.Int63()))
		n := 1 + r.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Floor(r.Float64()*10) / 10 // with ties
		}
		pos := r.Intn(n)
		cp := append([]float64(nil), vals...)
		got := quickselect(cp, pos)
		sort.Float64s(vals)
		return got == vals[pos]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPasting(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := boxData(500, 3, rng)
	resNo, err := (&Peeler{}).Discover(d, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	resYes, err := (&Peeler{Paste: true}).Discover(d, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Pasting can only add steps, never lose them.
	if len(resYes.Steps) < len(resNo.Steps) {
		t.Errorf("pasting lost steps: %d < %d", len(resYes.Steps), len(resNo.Steps))
	}
	// Pasted steps must not reduce train precision below the peeled
	// optimum by construction (mean strictly increases per paste).
	for k := len(resNo.Steps) + 1; k < len(resYes.Steps); k++ {
		if resYes.Steps[k].Train.Precision() <= resYes.Steps[k-1].Train.Precision() {
			t.Errorf("paste step %d did not improve train precision", k)
		}
	}
}

func TestBumpingParetoAndQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := boxData(400, 5, rng)
	res, err := (&Bumping{Q: 15, SubsetSize: 3}).Discover(d, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("bumping returned no boxes")
	}
	// Pareto property on validation (precision, recall): no step may
	// dominate another.
	totalPos := 0.0
	for _, y := range d.Y {
		totalPos += y
	}
	for a := range res.Steps {
		for b := range res.Steps {
			if a == b {
				continue
			}
			pa := []float64{res.Steps[a].Val.Precision(), res.Steps[a].Val.NPos / totalPos}
			pb := []float64{res.Steps[b].Val.Precision(), res.Steps[b].Val.NPos / totalPos}
			if dominates(pa, pb) && dominates(pb, pa) {
				t.Fatal("mutual domination is impossible")
			}
			if dominates(pa, pb) {
				t.Errorf("step %d dominates step %d: front not minimal", a, b)
			}
		}
	}
	st := sd.Compute(res.Final(), d)
	if st.Precision() < 0.8 {
		t.Errorf("bumping final precision = %.3f", st.Precision())
	}
}

func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

func TestBumpingNeedsRNG(t *testing.T) {
	d := boxData(50, 2, rand.New(rand.NewSource(10)))
	if _, err := (&Bumping{}).Discover(d, d, nil); err == nil {
		t.Error("nil RNG must be rejected")
	}
}

func TestBumpingSubsetLifting(t *testing.T) {
	// With SubsetSize=1, every discovered box restricts at most one
	// input in the full space.
	rng := rand.New(rand.NewSource(11))
	d := boxData(200, 4, rng)
	res, err := (&Bumping{Q: 8, SubsetSize: 1}).Discover(d, d, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Steps {
		if s.Box.Restricted() > 1 {
			t.Errorf("box restricts %d inputs, subset size is 1", s.Box.Restricted())
		}
		if s.Box.Dim() != 4 {
			t.Errorf("box dim = %d, want lifted to 4", s.Box.Dim())
		}
	}
}

func TestPropertyPeelDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := boxData(120, 3, rng)
		r1, err1 := (&Peeler{}).Discover(d, d, nil)
		r2, err2 := (&Peeler{}).Discover(d, d, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(r1.Steps) != len(r2.Steps) || r1.FinalIndex != r2.FinalIndex {
			return false
		}
		for k := range r1.Steps {
			if !r1.Steps[k].Box.Equal(r2.Steps[k].Box) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestObjectiveLift(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := boxData(500, 3, rng)
	mean, err := (&Peeler{Objective: ObjectiveMean}).Discover(d, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	lift, err := (&Peeler{Objective: ObjectiveLift}).Discover(d, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The lift objective favors support: its final box should cover at
	// least as many points as the mean objective's.
	if lift.Steps[lift.FinalIndex].Train.N < mean.Steps[mean.FinalIndex].Train.N/2 {
		t.Errorf("lift final support %d much smaller than mean objective %d",
			lift.Steps[lift.FinalIndex].Train.N, mean.Steps[mean.FinalIndex].Train.N)
	}
	// Both must still find a high-precision box.
	if st := sd.Compute(lift.Final(), d); st.Precision() < 0.8 {
		t.Errorf("lift objective precision %.3f", st.Precision())
	}
}

// TestPeelCutsWhereTheMidpointCannot peels one column whose peeled
// values have no midpoint beyond them: ten -Inf at its low end, ten
// +Inf at its high end, or five 1s beside math.Nextafter(1, 2), where
// the midpoint rounds back onto 1. The first peel's bound must then be
// the next value itself, and every step must remove a row. A bound at
// the midpoint there keeps every row, and Discover would append the
// same box forever.
func TestPeelCutsWhereTheMidpointCannot(t *testing.T) {
	const limit = 10 * time.Second
	inf, up := math.Inf(1), math.Nextafter(1, 2)
	cases := []struct {
		name   string
		x, y   func(i int) float64
		lo, hi float64 // the first peel's box
	}{
		{"-Inf at the low end",
			func(i int) float64 { return cond(i < 10, -inf, float64(i)/100) },
			func(i int) float64 { return cond(i < 10 || i%7 == 0, 0, 1) },
			0.1, inf},
		{"+Inf at the high end",
			func(i int) float64 { return cond(i >= 90, inf, float64(i)/100) },
			func(i int) float64 { return cond(i >= 90 || i%7 == 0, 0, 1) },
			-inf, 0.89},
		{"adjacent floats at the cut",
			func(i int) float64 { return cond(i < 5, 1, cond(i == 5, up, 1+float64(i)/100)) },
			func(i int) float64 { return cond(i < 5 || i%7 == 0, 0, 1) },
			up, inf},
	}
	for _, c := range cases {
		x := make([][]float64, 100)
		y := make([]float64, 100)
		for i := range x {
			x[i], y[i] = []float64{c.x(i)}, c.y(i)
		}
		d := dataset.MustNew(x, y)
		done := make(chan *sd.Result, 1)
		go func() {
			res, err := (&Peeler{}).Discover(d, d, nil)
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		var res *sd.Result
		select {
		case res = <-done:
		case <-time.After(limit):
			// A peel that removes nothing loops forever and grows its
			// trajectory without bound: stop the test binary, not just
			// this test.
			panic(fmt.Sprintf("%s: Discover did not return within %v", c.name, limit))
		}
		if res == nil {
			continue
		}
		if len(res.Steps) < 2 {
			t.Errorf("%s: %d steps, want a peel at least", c.name, len(res.Steps))
			continue
		}
		if b := res.Steps[1].Box; b.Lo[0] != c.lo || b.Hi[0] != c.hi {
			t.Errorf("%s: first peel [%v, %v], want [%v, %v]", c.name, b.Lo[0], b.Hi[0], c.lo, c.hi)
		}
		for k := 1; k < len(res.Steps); k++ {
			if prev, cur := res.Steps[k-1].Train.N, res.Steps[k].Train.N; cur >= prev {
				t.Errorf("%s: step %d kept %d of %d training rows", c.name, k, cur, prev)
			}
		}
	}
}

func cond(c bool, a, b float64) float64 {
	if c {
		return a
	}
	return b
}
