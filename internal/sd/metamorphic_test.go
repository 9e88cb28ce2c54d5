package sd_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/reds-go/reds/internal/bi"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/prim"
	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/sd"
)

// TestDiscoverersMetamorphic checks two relations that PRIM and BI owe
// the data, since both see it only through each input's value order and
// the labels:
//
//   - Permuting the rows moves no box: every trajectory step keeps its
//     bounds, and the same step is selected.
//   - A strictly increasing transform of each input keeps every order,
//     so every step covers the same rows and the same step is selected.
//     Bounds are midpoints between neighbouring values, which a
//     transform need not map onto each other, so coverage is compared
//     instead.
//
// PRIM holds the second relation for any increasing transform: its
// boxes are nested, so a row outside a bound stays outside. BI holds it
// for affine ones only. It places a bound at the midpoint between the
// nearest rows that satisfy the box's other bounds, and a later
// refinement can relax those bounds and bring a row from between the
// two inside; on which side of the midpoint that row falls is a matter
// of distances, which only an affine transform keeps.
//
// Bumping is left out: it draws its bootstraps by row.
func TestDiscoverersMetamorphic(t *testing.T) {
	increasing := []func(float64) float64{
		func(x float64) float64 { return x * x * x },
		func(x float64) float64 { return math.Exp(3 * x) },
		func(x float64) float64 { return -1 / (x + 0.5) },
	}
	affine := []func(float64) float64{
		func(x float64) float64 { return 3*x - 1 },
		func(x float64) float64 { return 0.25*x + 10 },
		func(x float64) float64 { return 7 * x },
	}
	discoverers := []struct {
		name string
		sd   sd.Discoverer
		// monotone are the transforms the relation holds for; each
		// transformed copy of the data gives input j transform
		// (j+shift) mod len(monotone), so every input meets each one.
		monotone []func(float64) float64
	}{
		{"prim/workers=1", &prim.Peeler{Workers: 1}, increasing},
		{"prim/workers=4", &prim.Peeler{Workers: 4}, increasing},
		{"bi/beam=1", &bi.BI{BeamSize: 1}, affine},
		{"bi/beam=5", &bi.BI{BeamSize: 5}, affine},
	}
	for _, name := range []string{"borehole", "morris", "hart3", "ellipse", "f2"} {
		f, err := funcs.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := funcs.Generate(f, 400, sample.LatinHypercube{}, rng)
			perm := rng.Perm(d.N())
			permuted := &dataset.Dataset{X: make([][]float64, d.N()), Y: make([]float64, d.N())}
			for k, i := range perm {
				permuted.X[k], permuted.Y[k] = d.X[i], d.Y[i]
			}
			for _, disc := range discoverers {
				at := func(what string) string { return fmt.Sprintf("%s/seed=%d/%s/%s", name, seed, disc.name, what) }
				base := discover(t, disc.sd, d)

				got := discover(t, disc.sd, permuted)
				if len(got.Steps) != len(base.Steps) || got.FinalIndex != base.FinalIndex {
					t.Errorf("%s: %d steps, final %d; want %d steps, final %d",
						at("permuted"), len(got.Steps), got.FinalIndex, len(base.Steps), base.FinalIndex)
					continue
				}
				for k := range base.Steps {
					if !got.Steps[k].Box.Equal(base.Steps[k].Box) {
						t.Errorf("%s: step %d box %v, want %v", at("permuted"), k, got.Steps[k].Box, base.Steps[k].Box)
						break
					}
				}

				for shift := range disc.monotone {
					what := fmt.Sprintf("monotone shift %d", shift)
					td := transform(d, disc.monotone, shift)
					got := discover(t, disc.sd, td)
					if len(got.Steps) != len(base.Steps) || got.FinalIndex != base.FinalIndex {
						t.Errorf("%s: %d steps, final %d; want %d steps, final %d",
							at(what), len(got.Steps), got.FinalIndex, len(base.Steps), base.FinalIndex)
						continue
					}
					for k := range base.Steps {
						if !slices.Equal(covered(got.Steps[k], td), covered(base.Steps[k], d)) {
							t.Errorf("%s: step %d covers other rows", at(what), k)
							break
						}
					}
				}
			}
		}
	}
}

// transform returns d with input j mapped through fs[(j+shift) mod
// len(fs)].
func transform(d *dataset.Dataset, fs []func(float64) float64, shift int) *dataset.Dataset {
	td := &dataset.Dataset{X: make([][]float64, d.N()), Y: d.Y}
	for i, x := range d.X {
		td.X[i] = make([]float64, len(x))
		for j, v := range x {
			td.X[i][j] = fs[(j+shift)%len(fs)](v)
		}
	}
	return td
}

// discover runs s with the training data as its validation data.
func discover(t *testing.T, s sd.Discoverer, d *dataset.Dataset) *sd.Result {
	t.Helper()
	res, err := s.Discover(d, d, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// covered lists the rows of d inside the step's box.
func covered(step sd.Step, d *dataset.Dataset) []bool {
	in := make([]bool, d.N())
	for i, x := range d.X {
		in[i] = step.Box.Contains(x)
	}
	return in
}
