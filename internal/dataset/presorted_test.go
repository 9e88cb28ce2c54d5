package dataset

import (
	"math"
	"testing"
)

// adopted reports whether column j of d's sorted orders is the
// candidate slice itself rather than a radix-sorted replacement.
func adopted(d *Dataset, j int, cand []int) bool {
	ords := d.SortedOrders()
	return len(cand) > 0 && len(ords[j]) > 0 && &ords[j][0] == &cand[0]
}

// lhsColumn builds one Latin hypercube column the way
// sample.LatinHypercube draws it, from a stratum permutation and
// in-stratum offsets, and returns it with its derived candidate order.
func lhsColumn(perm []int, u []float64) ([]float64, []int) {
	n := len(perm)
	col := make([]float64, n)
	ord := make([]int, n)
	for i, s := range perm {
		col[i] = (float64(s) + u[i]) / float64(n)
		ord[s] = i
	}
	return col, ord
}

// TestNewPresortedRejectsBadCandidates hands NewPresorted a two-column
// dataset whose first column's candidate is wrong in one way and whose
// second column's candidate is right. The wrong one must be rejected
// and radix-sorted, the right one adopted, and both orders must equal
// the comparison-sort oracle's.
func TestNewPresortedRejectsBadCandidates(t *testing.T) {
	// A forced stratum-edge tie: row 1 sits in stratum 2 with an offset
	// that rounds 2+u up to 3, and row 0 sits in stratum 3 with offset
	// 0, so both hold 3/7. The derived order puts row 1 first.
	edge, edgeOrd := lhsColumn([]int{3, 2, 0, 6, 1, 5, 4}, []float64{0, math.Nextafter(1, 0), 0.5, 0.25, 0.75, 0.1, 0.9})
	if edge[0] != edge[1] {
		t.Fatalf("the stratum-edge case does not tie: %v", edge)
	}
	negZero := math.Copysign(0, -1)
	negNaN := math.Copysign(math.NaN(), -1)
	plain := []float64{0.5, 0.25, 0.75, 0.125, 1}
	cases := []struct {
		name string
		col  []float64
		cand []int
	}{
		{"stratum-edge tie in the wrong row order", edge, edgeOrd},
		{"duplicate row", plain, []int{3, 1, 1, 2, 4}},
		{"index out of range", plain, []int{3, 1, 0, 2, 5}},
		{"negative index", plain, []int{-1, 3, 1, 0, 2}},
		{"short column", plain, []int{3, 1, 0, 2}},
		{"long column", plain, []int{3, 1, 0, 2, 4, 4}},
		{"descending pair", plain, []int{3, 0, 1, 2, 4}},
		{"NaN before a number", []float64{1, math.NaN(), 2, negNaN, 0}, []int{4, 1, 0, 2, 3}},
		{"NaNs out of row order", []float64{1, math.NaN(), 2, negNaN, 0}, []int{4, 0, 2, 3, 1}},
		{"+0 and -0 out of row order", []float64{negZero, 0, -1, negZero, 1}, []int{2, 1, 0, 3, 4}},
		{"missing candidate", plain, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.col)
			x := make([][]float64, n)
			for i := range x {
				// Column 1 holds the row index: its candidate is the identity.
				x[i] = []float64{tc.col[i], float64(i)}
			}
			good := make([]int, n)
			for i := range good {
				good[i] = i
			}
			cand := [][]int{tc.cand, good}
			want := referenceSortedOrders(MustNew(x, make([]float64, n)))
			d, err := NewPresorted(x, make([]float64, n), cand)
			if err != nil {
				t.Fatal(err)
			}
			if diff := diffOrders(d.SortedOrders(), want); diff != "" {
				t.Fatal(diff)
			}
			if adopted(d, 0, tc.cand) {
				t.Errorf("column 0 adopted the bad candidate %v", tc.cand)
			}
			if !adopted(d, 1, good) {
				t.Errorf("column 1 radix-sorted a valid candidate")
			}
		})
	}
}

// TestNewPresortedAdoptsSpecialValues: a candidate that orders NaNs of
// both signs last in row order and ties -0 with +0 in row order is the
// sorted order, and is adopted as is.
func TestNewPresortedAdoptsSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	col := []float64{math.NaN(), 0, math.Inf(1), negZero, math.Copysign(math.NaN(), -1), math.Inf(-1), 0}
	cand := []int{5, 1, 3, 6, 2, 0, 4}
	x := make([][]float64, len(col))
	for i, v := range col {
		x[i] = []float64{v}
	}
	d, err := NewPresorted(x, make([]float64, len(col)), [][]int{cand})
	if err != nil {
		t.Fatal(err)
	}
	if !adopted(d, 0, cand) {
		t.Fatalf("valid candidate %v rejected; oracle order %v", cand, referenceSortedOrders(d)[0])
	}
	if diff := diffOrders(d.SortedOrders(), referenceSortedOrders(d)); diff != "" {
		t.Fatal(diff)
	}
}

func TestNewPresortedValidatesShape(t *testing.T) {
	if _, err := NewPresorted([][]float64{{1}, {2}}, []float64{0}, nil); err == nil {
		t.Error("mismatched labels accepted")
	}
	if _, err := NewPresorted([][]float64{{1, 2}, {3}}, []float64{0, 1}, nil); err == nil {
		t.Error("ragged rows accepted")
	}
}

// fuzzValues are the values FuzzNewPresorted builds columns from: NaN
// of both signs, ±0, ±Inf and repeated small numbers, so ties and the
// special classes meet in small columns.
var fuzzValues = []float64{
	math.NaN(), math.Copysign(math.NaN(), -1), 0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1), 1, 1, -1, 0.5, 2, math.SmallestNonzeroFloat64,
}

// FuzzNewPresorted builds a two-column dataset from vals (each byte
// picks a fuzzValues entry) and starts each column's candidate from
// the oracle's order. edits then mutates the candidates two bytes at a
// time: the first byte picks the column and the edit, the second its
// position. Whatever the candidates, the sorted orders must equal the
// oracle's, and a column must adopt its candidate exactly when it is
// the oracle's order.
func FuzzNewPresorted(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{})
	f.Add([]byte{2, 3, 3, 2, 0, 1, 1, 0}, []byte{0, 1})
	f.Add([]byte{6, 7, 6, 7, 6, 7}, []byte{1, 0, 2, 3, 4, 1})
	f.Add([]byte{0, 0, 1, 1, 4, 5}, []byte{3, 2, 5, 0, 6, 9})
	f.Fuzz(func(t *testing.T, vals, edits []byte) {
		const m = 2
		n := min(len(vals)/m, 64)
		if n == 0 {
			return
		}
		x := make([][]float64, n)
		for i := range x {
			x[i] = make([]float64, m)
			for j := range x[i] {
				x[i][j] = fuzzValues[int(vals[i*m+j])%len(fuzzValues)]
			}
		}
		want := referenceSortedOrders(MustNew(x, make([]float64, n)))
		cand := make([][]int, m)
		for j := range cand {
			cand[j] = append([]int(nil), want[j]...)
		}
		for e := 0; e+1 < len(edits); e += 2 {
			j, op := int(edits[e]%m), int(edits[e]/m)%6
			c := cand[j]
			if len(c) == 0 {
				continue
			}
			k := int(edits[e+1]) % len(c)
			switch op {
			case 0: // swap with the next entry
				if k+1 < len(c) {
					c[k], c[k+1] = c[k+1], c[k]
				}
			case 1: // duplicate the previous entry
				if k > 0 {
					c[k] = c[k-1]
				}
			case 2: // out of range
				c[k] = n + k
			case 3: // negative
				c[k] = -1 - k
			case 4: // drop the tail
				cand[j] = c[:k]
			case 5: // append a row
				cand[j] = append(c, k)
			}
		}
		keep := append([][]int(nil), cand...)
		d, err := NewPresorted(x, make([]float64, n), cand)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffOrders(d.SortedOrders(), want); diff != "" {
			t.Fatalf("candidates %v: %s", keep, diff)
		}
		for j := range keep {
			equal := diffOrders([][]int{keep[j]}, [][]int{want[j]}) == ""
			if got := adopted(d, j, keep[j]); got != equal {
				t.Fatalf("column %d: adopted=%v for candidate %v, oracle %v", j, got, keep[j], want[j])
			}
		}
	})
}
