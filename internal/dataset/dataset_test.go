package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sample(t *testing.T, n, m int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		if rng.Float64() < 0.3 {
			y[i] = 1
		}
	}
	return MustNew(x, y)
}

func TestNewValidation(t *testing.T) {
	if _, err := New([][]float64{{1, 2}}, []float64{1, 0}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := New([][]float64{{1, 2}, {1}}, []float64{1, 0}); err == nil {
		t.Error("ragged rows should error")
	}
	d, err := New(nil, nil)
	if err != nil || d.N() != 0 || d.M() != 0 {
		t.Errorf("empty dataset: %v, N=%d M=%d", err, d.N(), d.M())
	}
}

func TestPositiveShare(t *testing.T) {
	d := MustNew([][]float64{{0}, {0}, {0}, {0}}, []float64{1, 0, 1, 0})
	if s := d.PositiveShare(); s != 0.5 {
		t.Errorf("share = %g, want 0.5", s)
	}
	// Probability labels count fractionally.
	d = MustNew([][]float64{{0}, {0}}, []float64{0.25, 0.75})
	if s := d.PositiveShare(); s != 0.5 {
		t.Errorf("prob share = %g, want 0.5", s)
	}
}

func TestSubsetAndBootstrap(t *testing.T) {
	d := sample(t, 50, 3, 1)
	s := d.Subset([]int{4, 9, 4})
	if s.N() != 3 || s.X[0][0] != d.X[4][0] || s.X[2][0] != d.X[4][0] {
		t.Error("Subset rows wrong")
	}
	rng := rand.New(rand.NewSource(2))
	b := d.Bootstrap(rng)
	if b.N() != d.N() {
		t.Errorf("bootstrap size = %d, want %d", b.N(), d.N())
	}
}

func TestSelectColumns(t *testing.T) {
	d := MustNew([][]float64{{1, 2, 3}, {4, 5, 6}}, []float64{0, 1})
	d.Discrete = []bool{false, true, false}
	s := d.SelectColumns([]int{2, 0})
	if s.M() != 2 || s.X[0][0] != 3 || s.X[0][1] != 1 || s.X[1][0] != 6 {
		t.Errorf("SelectColumns wrong: %v", s.X)
	}
	if s.Discrete[0] || !s.Discrete[1] == true {
		// col 2 is continuous, col 0 is continuous; mask projected
	}
	if len(s.Discrete) != 2 {
		t.Errorf("Discrete mask not projected: %v", s.Discrete)
	}
}

func TestColumnRange(t *testing.T) {
	d := MustNew([][]float64{{1, -2}, {3, 5}, {2, 0}}, []float64{0, 0, 0})
	lo, hi := d.ColumnRange()
	if lo[0] != 1 || hi[0] != 3 || lo[1] != -2 || hi[1] != 5 {
		t.Errorf("range = %v %v", lo, hi)
	}
}

func TestConcat(t *testing.T) {
	a := sample(t, 5, 2, 1)
	b := sample(t, 7, 2, 2)
	c, err := Concat(a, b)
	if err != nil || c.N() != 12 {
		t.Fatalf("Concat: %v N=%d", err, c.N())
	}
	bad := sample(t, 3, 4, 3)
	if _, err := Concat(a, bad); err == nil {
		t.Error("dim mismatch should error")
	}
}

func TestBinarize(t *testing.T) {
	x := [][]float64{{0}, {0}, {0}}
	raw := []float64{1, 5, 3}
	d := Binarize(x, raw, 3)
	want := []float64{1, 0, 0} // strict less-than
	for i := range want {
		if d.Y[i] != want[i] {
			t.Errorf("Binarize[%d] = %g, want %g", i, d.Y[i], want[i])
		}
	}
}

func TestKFoldStratified(t *testing.T) {
	d := sample(t, 100, 2, 3)
	rng := rand.New(rand.NewSource(4))
	folds, err := KFold(d, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := make([]int, d.N())
	total := 0
	for _, f := range folds {
		if f.Train.N()+f.Test.N() != d.N() {
			t.Error("fold sizes do not sum to N")
		}
		for _, i := range f.TestIdx {
			seen[i]++
			total++
		}
		// Stratification: positive share within ±15pp of the global share.
		gs := d.PositiveShare()
		if math.Abs(f.Test.PositiveShare()-gs) > 0.15 {
			t.Errorf("fold share %g too far from %g", f.Test.PositiveShare(), gs)
		}
	}
	if total != d.N() {
		t.Errorf("test rows total = %d, want %d", total, d.N())
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("row %d appears in %d test folds", i, c)
		}
	}
	if _, err := KFold(d, 1, rng); err == nil {
		t.Error("k=1 should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample(t, 17, 4, 7)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != d.N() || got.M() != d.M() {
		t.Fatalf("shape %dx%d, want %dx%d", got.N(), got.M(), d.N(), d.M())
	}
	for i := range d.X {
		for j := range d.X[i] {
			if got.X[i][j] != d.X[i][j] {
				t.Fatalf("X[%d][%d] = %g, want %g", i, j, got.X[i][j], d.X[i][j])
			}
		}
		if got.Y[i] != d.Y[i] {
			t.Fatalf("Y[%d] = %g, want %g", i, got.Y[i], d.Y[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                // empty
		"a0,y",            // header only
		"1,2\n1",          // ragged (csv pkg catches this)
		"1,abc\n",         // bad label
		"only_one_col\n1", // single column after header
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCSV(%q) should error", c)
		}
	}
}

func TestCloneDeep(t *testing.T) {
	d := sample(t, 5, 2, 8)
	c := d.Clone()
	c.X[0][0] = 999
	c.Y[0] = 999
	if d.X[0][0] == 999 || d.Y[0] == 999 {
		t.Error("Clone must deep-copy")
	}
}

func TestPropertyKFoldPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(90)
		d := sample(t, n, 2, seed)
		k := 2 + rng.Intn(4)
		folds, err := KFold(d, k, rng)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for _, f := range folds {
			for _, i := range f.TestIdx {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBootstrapPreservesRows(t *testing.T) {
	d := sample(t, 30, 3, 9)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := d.Bootstrap(rng)
		// Every bootstrap row must be one of the original rows.
		for k, row := range b.X {
			found := false
			for i, orig := range d.X {
				if &row[0] == &orig[0] && b.Y[k] == d.Y[i] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
