package dataset

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestColumnsView(t *testing.T) {
	d := MustNew([][]float64{{1, 2}, {3, 4}, {5, 6}}, []float64{0, 1, 0})
	cols := d.Columns()
	if len(cols) != 2 {
		t.Fatalf("got %d columns", len(cols))
	}
	for j := range cols {
		for i := range d.X {
			if cols[j][i] != d.X[i][j] {
				t.Fatalf("cols[%d][%d] = %g, want %g", j, i, cols[j][i], d.X[i][j])
			}
		}
	}
	if &cols[0][0] != &d.Columns()[0][0] {
		t.Error("second call must return the cached view")
	}
	var empty Dataset
	if empty.Columns() != nil || empty.SortedOrders() != nil {
		t.Error("empty dataset must return nil views")
	}
}

func TestSortedOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, m := 200, 3
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		// Quantized first column to exercise tie-breaking by row index.
		x[i] = []float64{float64(rng.Intn(5)), rng.Float64(), rng.Float64()}
	}
	d := MustNew(x, y)
	ords := d.SortedOrders()
	if len(ords) != m {
		t.Fatalf("got %d orders", len(ords))
	}
	for j, ord := range ords {
		if len(ord) != n {
			t.Fatalf("order %d has %d entries", j, len(ord))
		}
		seen := make([]bool, n)
		for k, i := range ord {
			if seen[i] {
				t.Fatalf("order %d repeats row %d", j, i)
			}
			seen[i] = true
			if k == 0 {
				continue
			}
			prev := ord[k-1]
			if x[i][j] < x[prev][j] {
				t.Fatalf("order %d not ascending at %d", j, k)
			}
			if x[i][j] == x[prev][j] && i < prev {
				t.Fatalf("order %d tie not broken by row index at %d", j, k)
			}
		}
	}
}

func TestColumnsConcurrentFirstUse(t *testing.T) {
	d := MustNew([][]float64{{1, 2}, {3, 4}}, []float64{0, 1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = d.Columns()
			_ = d.SortedOrders()
		}()
	}
	wg.Wait()
}

func TestUnmarshalInvalidatesViews(t *testing.T) {
	d := MustNew([][]float64{{1}, {2}}, []float64{0, 1})
	if got := d.Columns()[0][0]; got != 1 {
		t.Fatalf("pre-decode column = %g", got)
	}
	if err := json.Unmarshal([]byte(`{"x":[[9],[8],[7]],"y":[1,0,1]}`), d); err != nil {
		t.Fatal(err)
	}
	cols := d.Columns()
	if len(cols[0]) != 3 || cols[0][0] != 9 {
		t.Fatalf("stale columnar view survived decode: %v", cols[0])
	}
}

// TestSortedOrdersNaNLast: a column holding NaN still sorts into one
// total order — numbers ascending, then the NaNs, each run tied by row
// index. A comparator that is not a strict weak order over NaN leaves
// numbers out of order around them.
func TestSortedOrdersNaNLast(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 20 + rng.Intn(200)
		x := make([][]float64, n)
		for i := range x {
			v := float64(rng.Intn(8)) // ties exercise the row-index break
			switch rng.Intn(8) {
			case 0, 1:
				v = math.NaN()
			case 2:
				v = math.Inf(1 - 2*rng.Intn(2))
			}
			x[i] = []float64{v}
		}
		ord := MustNew(x, make([]float64, n)).SortedOrders()[0]
		for k := 1; k < n; k++ {
			a, b := x[ord[k-1]][0], x[ord[k]][0]
			an, bn := math.IsNaN(a), math.IsNaN(b)
			switch {
			case an && !bn:
				t.Fatalf("trial %d: %g at %d after a NaN", trial, b, k)
			case !an && !bn && a > b:
				t.Fatalf("trial %d: %g at %d after %g", trial, b, k, a)
			case (an && bn || a == b) && ord[k] < ord[k-1]:
				t.Fatalf("trial %d: tie at %d not broken by row index", trial, k)
			}
		}
	}
}
