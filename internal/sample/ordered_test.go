package sample_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/sample"
)

// TestSampleOrderedDerivesSortedOrders is the differential test of the
// derived orders: SampleOrdered draws Sample's design bit for bit, and
// dataset.NewPresorted, handed its orders, adopts every column and
// serves the radix presort's orders of a fresh dataset, index for
// index.
func TestSampleOrderedDerivesSortedOrders(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000, 100000} {
		for _, dim := range []int{1, 8, 20} {
			for seed := int64(1); seed <= 5; seed++ {
				t.Run(fmt.Sprintf("n=%d/dim=%d/seed=%d", n, dim, seed), func(t *testing.T) {
					checkSampleOrdered(t, n, dim, seed)
				})
			}
		}
	}
}

func checkSampleOrdered(t *testing.T, n, dim int, seed int64) {
	want := sample.LatinHypercube{}.Sample(n, dim, rand.New(rand.NewSource(seed)))
	pts, ords := sample.LatinHypercube{}.SampleOrdered(n, dim, rand.New(rand.NewSource(seed)))
	if len(pts) != n || len(ords) != dim {
		t.Fatalf("got %d points and %d orders, want %d and %d", len(pts), len(ords), n, dim)
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(pts[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("point %d input %d = %v, Sample drew %v", i, j, pts[i][j], want[i][j])
			}
		}
	}
	cand := append([][]int(nil), ords...)
	d, err := dataset.NewPresorted(pts, make([]float64, n), ords)
	if err != nil {
		t.Fatal(err)
	}
	got, radix := d.SortedOrders(), dataset.MustNew(want, make([]float64, n)).SortedOrders()
	if len(got) != len(radix) {
		t.Fatalf("%d orders, the radix presort has %d", len(got), len(radix))
	}
	for j := range radix {
		for k := range radix[j] {
			if got[j][k] != radix[j][k] {
				t.Fatalf("order %d holds row %d at position %d, the radix presort row %d", j, got[j][k], k, radix[j][k])
			}
		}
		if n > 0 && &got[j][0] != &cand[j][0] {
			t.Errorf("column %d: the derived order was rejected and radix-sorted", j)
		}
	}
}
