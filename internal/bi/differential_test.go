package bi

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/reds-go/reds/internal/box"
	"github.com/reds-go/reds/internal/dataset"
)

// TestFastIntervalMatchesReference compares the violation-count fast
// path against the reference othersContain implementation on random
// partially-restricted boxes, including quantized (tied) columns, and
// asserts identical interval bounds and identical WRAcc sums.
func TestFastIntervalMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		n, m := 200, 4
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			row := make([]float64, m)
			for j := range row {
				if j%2 == 0 {
					row[j] = math.Floor(rng.Float64()*6) / 6 // ties
				} else {
					row[j] = rng.Float64()
				}
			}
			x[i] = row
			if rng.Float64() < 0.4 {
				y[i] = 1
			}
		}
		d := dataset.MustNew(x, y)
		p0 := d.PositiveShare()
		cols := d.Columns()
		orders := d.SortedOrders()

		viol := make([]int, n)
		vdim := make([]int, n)
		var groups []group

		for trial := 0; trial < 20; trial++ {
			// A random box restricting a random subset of dims.
			cur := box.Full(m)
			for j := 0; j < m; j++ {
				if rng.Float64() < 0.5 {
					a, b := rng.Float64(), rng.Float64()
					if a > b {
						a, b = b, a
					}
					cur.Lo[j], cur.Hi[j] = a, b
				}
			}
			countViolations(d, cur, viol, vdim)
			for j := 0; j < m; j++ {
				want, wantOK := bestIntervalReference(d, orders[j], cur, j, p0)
				got, gotOK := bestInterval(cols[j], d.Y, orders[j], cur, j, p0, viol, vdim, &groups)
				if wantOK != gotOK {
					t.Fatalf("seed %d trial %d dim %d: ok %v, want %v", seed, trial, j, gotOK, wantOK)
				}
				if !wantOK {
					continue
				}
				if !reflect.DeepEqual(got.Lo, want.Lo) || !reflect.DeepEqual(got.Hi, want.Hi) {
					t.Fatalf("seed %d trial %d dim %d: box differs\ngot:  %v\nwant: %v", seed, trial, j, got, want)
				}
				// The fast WRAcc must match the reference Contains scan
				// bit for bit: same points, same ascending iteration.
				wantW := 0.0
				for _, i := range orders[j] {
					if want.Contains(d.X[i]) {
						wantW += d.Y[i] - p0
					}
				}
				gotW := intervalWRAcc(cols[j], d.Y, orders[j], j, got, p0, viol, vdim)
				if gotW != wantW {
					t.Fatalf("seed %d trial %d dim %d: wracc %v, want %v", seed, trial, j, gotW, wantW)
				}
			}
		}
	}
}

// TestBIParallelMatchesSerial asserts the beam-candidate fan-out at
// GOMAXPROCS 4 returns the exact result of the serial scan at
// GOMAXPROCS 1 — same boxes, same statistics — across beam sizes. Run under -race this also exercises
// the shared viol/vdim scratch and the per-worker group buffers.
func TestBIParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, m := 500, 8
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			if j%2 == 0 {
				row[j] = math.Floor(rng.Float64()*6) / 6 // ties
			} else {
				row[j] = rng.Float64()
			}
		}
		x[i] = row
		if row[0] < 0.5 && row[1] > 0.3 {
			y[i] = 1
		}
	}
	d := dataset.MustNew(x, y)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, bs := range []int{1, 3} {
		runtime.GOMAXPROCS(1)
		serial, err := (&BI{BeamSize: bs}).Discover(d, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(4)
		parallel, err := (&BI{BeamSize: bs}).Discover(d, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("beam size %d: parallel result differs from serial", bs)
		}
	}
}
