package dataset

import (
	"encoding/json"
	"fmt"
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

// TestColumnsConcurrentFirstUse: eight goroutines race to build the
// views of a fresh dataset wide enough for the presort to fan out over
// its columns. Every caller must see the reference orders and the same
// Columns and Bins views.
func TestColumnsConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 3000, 8
	x := make([][]float64, n)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			switch rng.Intn(10) {
			case 0:
				row[j] = math.NaN()
			case 1, 2, 3:
				row[j] = float64(rng.Intn(5)) // ties
			default:
				row[j] = rng.NormFloat64()
			}
		}
		x[i] = row
	}
	d := MustNew(x, make([]float64, n))
	want := referenceSortedOrders(d)
	const callers = 8
	cols := make([][][]float64, callers)
	bins := make([]*Bins, callers)
	var wg sync.WaitGroup
	for w := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the callers reach the orders through Bins first.
			if w%2 == 1 {
				bins[w] = d.Bins(DefaultBins)
			}
			cols[w] = d.Columns()
			if diff := diffOrders(d.SortedOrders(), want); diff != "" {
				t.Errorf("caller %d: %s", w, diff)
			}
			if w%2 == 0 {
				bins[w] = d.Bins(DefaultBins)
			}
		}()
	}
	wg.Wait()
	for w := 1; w < callers; w++ {
		if &cols[w][0][0] != &cols[0][0][0] || bins[w] != bins[0] {
			t.Errorf("caller %d got views other than caller 0's", w)
		}
	}
}

// orderClasses are the kinds of value the differential test mixes into
// a column: every float class whose place in the order the radix key
// must get right.
var orderClasses = []func(*rand.Rand) float64{
	func(rng *rand.Rand) float64 { // NaN: plain, sign bit set, with payloads
		return []float64{
			math.NaN(),
			math.Copysign(math.NaN(), -1),
			math.Float64frombits(0xFFF8_0000_0000_0001),
			math.Float64frombits(0x7FF0_0000_0000_0001),
		}[rng.Intn(4)]
	},
	func(rng *rand.Rand) float64 { return math.Inf(1 - 2*rng.Intn(2)) },
	func(rng *rand.Rand) float64 { return math.Copysign(0, float64(1-2*rng.Intn(2))) },
	func(rng *rand.Rand) float64 { // subnormal of either sign
		return math.Float64frombits(uint64(rng.Intn(2))<<63 | uint64(rng.Int63n(1<<52)))
	},
	func(rng *rand.Rand) float64 { return math.Copysign(math.MaxFloat64, float64(1-2*rng.Intn(2))) },
	func(rng *rand.Rand) float64 { return float64(rng.Intn(7) - 3) }, // small-integer ties
	func(rng *rand.Rand) float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(21)-10)) },
}

// TestSortedOrdersMatchesReference holds the radix presort to the
// comparison-sort oracle, index for index, on random datasets whose
// columns each mix a random subset of orderClasses: -0 against +0,
// NaNs whatever their sign or payload, ±Inf, subnormals, ±MaxFloat64,
// ties and normals.
func TestSortedOrdersMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(3001)
		if trial%2 == 0 {
			n = rng.Intn(40)
		}
		m := 1 + rng.Intn(4)
		classes := make([][]int, m)
		for j := range classes {
			mask := 1 + rng.Intn(1<<len(orderClasses)-1)
			for c := range orderClasses {
				if mask&(1<<c) != 0 {
					classes[j] = append(classes[j], c)
				}
			}
		}
		x := make([][]float64, n)
		for i := range x {
			row := make([]float64, m)
			for j, cs := range classes {
				row[j] = orderClasses[cs[rng.Intn(len(cs))]](rng)
			}
			x[i] = row
		}
		d := MustNew(x, make([]float64, n))
		if diff := diffOrders(d.SortedOrders(), referenceSortedOrders(d)); diff != "" {
			t.Fatalf("trial %d (%d rows, classes %v): %s", trial, n, classes, diff)
		}
	}
}

// diffOrders describes the first place got and want differ, or returns
// "" when they are equal index for index.
func diffOrders(got, want [][]int) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d orders, want %d", len(got), len(want))
	}
	for j := range want {
		if len(got[j]) != len(want[j]) {
			return fmt.Sprintf("order %d has %d rows, want %d", j, len(got[j]), len(want[j]))
		}
		for k := range want[j] {
			if got[j][k] != want[j][k] {
				return fmt.Sprintf("order %d holds row %d at position %d, want row %d", j, got[j][k], k, want[j][k])
			}
		}
	}
	return ""
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
