// Package dataset provides the tabular container used by every algorithm in
// this repository: an N×M input matrix plus an output column, with helpers
// for bootstrap resampling, column subsetting, stratified k-fold splits and
// CSV interchange. Labels are float64 so that both binary {0,1} labels and
// the probability pseudo-labels of the REDS "p" variant flow through the
// same code paths.
//
// # Columnar views
//
// The hot loops of split finding (rf, gbt) and peeling (prim, bi) scan one
// feature at a time, so Dataset lazily derives two cached, shared views:
// Columns (a column-major copy) and SortedOrders (per-column sorted index
// orders, computed once). The row-major reference implementations those
// packages keep as test oracles read the same dataset, and differential
// tests assert both produce identical trees and boxes. Once either view
// has been materialized the dataset must be treated as immutable — grow
// into a fresh Dataset instead of appending rows.
//
// # Content hashing
//
// Hash digests the full dataset content (shape, inputs, labels, discrete
// mask) into a stable SHA-256 hex string. Two datasets hash equal iff they
// hold bit-identical data, regardless of how they were loaded, which makes
// the digest the natural cache and addressing key: the engine's metamodel
// cache keys on it, and persisted job results carry it as dataset_hash.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Dataset holds N examples with M inputs each. X is row-major: X[i] is the
// i-th point. Y[i] is the observed output, normally in {0,1} but any value
// in [0,1] is legal (probability labels). Discrete marks inputs that take a
// finite set of values; algorithms that need it (consistency, mixed-input
// sampling) consult this mask, everything else treats inputs as numeric.
//
// Columns and SortedOrders lazily derive (and cache) a column-major view
// and per-column sorted index orders; once either has been called the
// dataset must be treated as immutable.
type Dataset struct {
	X        [][]float64
	Y        []float64
	Discrete []bool // nil means all-continuous

	mu   sync.Mutex // guards the lazy caches below
	cols [][]float64
	ords [][]int
	bins map[int]*Bins // quantization views, keyed by bin budget
}

// New builds a dataset and validates the shape.
func New(x [][]float64, y []float64) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("dataset: %d points but %d labels", len(x), len(y))
	}
	if len(x) > 0 {
		m := len(x[0])
		for i, row := range x {
			if len(row) != m {
				return nil, fmt.Errorf("dataset: row %d has %d columns, want %d", i, len(row), m)
			}
		}
	}
	return &Dataset{X: x, Y: y}, nil
}

// MustNew is New for statically well-formed inputs; it panics on error.
func MustNew(x [][]float64, y []float64) *Dataset {
	d, err := New(x, y)
	if err != nil {
		panic(err)
	}
	return d
}

// N returns the number of examples.
func (d *Dataset) N() int { return len(d.X) }

// M returns the number of inputs, 0 for an empty dataset.
func (d *Dataset) M() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// PositiveShare returns mean(Y), the share of interesting examples
// (N+/N in the paper's notation).
func (d *Dataset) PositiveShare() float64 {
	if len(d.Y) == 0 {
		return 0
	}
	s := 0.0
	for _, y := range d.Y {
		s += y
	}
	return s / float64(len(d.Y))
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	x := make([][]float64, len(d.X))
	for i, row := range d.X {
		x[i] = append([]float64(nil), row...)
	}
	y := append([]float64(nil), d.Y...)
	c := &Dataset{X: x, Y: y}
	if d.Discrete != nil {
		c.Discrete = append([]bool(nil), d.Discrete...)
	}
	return c
}

// Subset returns a dataset view containing the rows at the given indices.
// Rows are shared, not copied; callers must not mutate them.
func (d *Dataset) Subset(idx []int) *Dataset {
	x := make([][]float64, len(idx))
	y := make([]float64, len(idx))
	for k, i := range idx {
		x[k] = d.X[i]
		y[k] = d.Y[i]
	}
	return &Dataset{X: x, Y: y, Discrete: d.Discrete}
}

// Bootstrap returns a bootstrap resample of size N drawn with the given RNG.
func (d *Dataset) Bootstrap(rng *rand.Rand) *Dataset {
	n := d.N()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	return d.Subset(idx)
}

// SelectColumns returns a dataset with only the given input columns, in the
// given order. Rows are copied. The Discrete mask is projected accordingly.
func (d *Dataset) SelectColumns(cols []int) *Dataset {
	x := make([][]float64, d.N())
	for i, row := range d.X {
		r := make([]float64, len(cols))
		for k, c := range cols {
			r[k] = row[c]
		}
		x[i] = r
	}
	out := &Dataset{X: x, Y: append([]float64(nil), d.Y...)}
	if d.Discrete != nil {
		m := make([]bool, len(cols))
		for k, c := range cols {
			m[k] = d.Discrete[c]
		}
		out.Discrete = m
	}
	return out
}

// ColumnRange returns the observed minimum and maximum of each input.
// For an empty dataset both slices are nil.
func (d *Dataset) ColumnRange() (lo, hi []float64) {
	if d.N() == 0 {
		return nil, nil
	}
	m := d.M()
	lo = make([]float64, m)
	hi = make([]float64, m)
	for j := 0; j < m; j++ {
		lo[j] = math.Inf(1)
		hi[j] = math.Inf(-1)
	}
	for _, row := range d.X {
		for j, v := range row {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	return lo, hi
}

// Shuffled returns a dataset with rows permuted by rng.
func (d *Dataset) Shuffled(rng *rand.Rand) *Dataset {
	idx := rng.Perm(d.N())
	return d.Subset(idx)
}

// Concat appends the rows of o to d and returns the combined dataset. The
// two datasets must have the same number of inputs.
func Concat(d, o *Dataset) (*Dataset, error) {
	if d.N() > 0 && o.N() > 0 && d.M() != o.M() {
		return nil, fmt.Errorf("dataset: concat dim mismatch %d != %d", d.M(), o.M())
	}
	x := make([][]float64, 0, d.N()+o.N())
	x = append(x, d.X...)
	x = append(x, o.X...)
	y := make([]float64, 0, len(d.Y)+len(o.Y))
	y = append(y, d.Y...)
	y = append(y, o.Y...)
	return &Dataset{X: x, Y: y, Discrete: d.Discrete}, nil
}

// Binarize returns a copy whose labels are 1 where raw < thr and 0
// otherwise. This matches the paper's convention "y = 1 if the output is
// below [the threshold]".
func Binarize(x [][]float64, raw []float64, thr float64) *Dataset {
	y := make([]float64, len(raw))
	for i, v := range raw {
		if v < thr {
			y[i] = 1
		}
	}
	return &Dataset{X: x, Y: y}
}
