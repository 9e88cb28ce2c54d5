package core

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/prim"
	"github.com/reds-go/reds/internal/rf"
)

func validREDS() *REDS {
	return &REDS{Metamodel: &rf.Trainer{NTrees: 10}, L: 500, SD: &prim.Peeler{}}
}

// TestDiscoverRejectsMalformedData covers the zero-width and ragged-row
// cases that previously failed deep inside the sampler or the SD
// algorithm with opaque errors.
func TestDiscoverRejectsMalformedData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		d    *dataset.Dataset
		want string
	}{
		{"zero-width rows", &dataset.Dataset{X: [][]float64{{}, {}}, Y: []float64{0, 1}}, "zero input columns"},
		{"ragged rows", &dataset.Dataset{X: [][]float64{{1, 2}, {3}}, Y: []float64{0, 1}}, "row 1 has 1 columns"},
		{"label mismatch", &dataset.Dataset{X: [][]float64{{1, 2}, {3, 4}}, Y: []float64{0}}, "labels"},
		{"empty", &dataset.Dataset{}, "empty training data"},
	}
	for _, tc := range cases {
		_, err := validREDS().Discover(tc.d, nil, rng)
		if err == nil {
			t.Errorf("%s: Discover accepted malformed data", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if _, err := validREDS().DiscoverSemiSupervised(tc.d, [][]float64{{0.5, 0.5}}, rng); err == nil {
			t.Errorf("%s: DiscoverSemiSupervised accepted malformed data", tc.name)
		}
	}
}
