package dataset

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzHistChildren holds the sibling step to fresh fills. From seed it
// draws up to 32 dataset rows over up to 4 features of 1 to 8 bins each,
// their codes, integer-valued pairs (so the subtraction is exact), and
// nRows node rows with repeats, as bootstrap rows have; split picks the
// cut and need's two low bits which children need a histogram. Every
// histogram Get hands out must be zeroed, though the free list holds
// dirty ones.
func FuzzHistChildren(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(3))
	f.Add(int64(2), uint8(40), uint8(13), uint8(3))
	f.Add(int64(3), uint8(40), uint8(30), uint8(3))
	f.Add(int64(4), uint8(9), uint8(4), uint8(1))
	f.Add(int64(5), uint8(9), uint8(4), uint8(2))
	f.Add(int64(6), uint8(200), uint8(100), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRows, split, need uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(32), 1+rng.Intn(4)
		b := &Bins{edges: make([][]float64, m), codes: make([][]uint8, m)}
		for j := range b.edges {
			b.edges[j] = make([]float64, rng.Intn(8))
			b.codes[j] = make([]uint8, n)
			for i := range b.codes[j] {
				b.codes[j][i] = uint8(rng.Intn(b.NumBins(j)))
			}
		}
		pairs := make([]float64, 2*n)
		for i := range pairs {
			pairs[i] = float64(rng.Intn(17) - 8)
		}
		rows := make([]int, nRows)
		for k := range rows {
			rows[k] = rng.Intn(n)
		}
		mid := int(split) % (len(rows) + 1)
		needL, needR := need&1 != 0, need&2 != 0

		h := b.NewHist(pairs)
		checkZero := func(what string, hist []float64) {
			t.Helper()
			for i, v := range hist {
				if v != 0 || math.Signbit(v) {
					t.Fatalf("%s: slot %d = %v, want a zeroed histogram", what, i, v)
				}
			}
		}
		for range 2 {
			dirty := h.Get()
			for i := range dirty {
				dirty[i] = float64(i + 1)
			}
			h.Put(dirty)
		}
		parent := h.Get()
		checkZero("recycled parent", parent)
		h.Fill(parent, rows)

		l, r := h.Children(rows, mid, needL, needR, parent)
		for _, side := range []struct {
			name string
			need bool
			got  []float64
			rows []int
		}{{"left", needL, l, rows[:mid]}, {"right", needR, r, rows[mid:]}} {
			if !side.need {
				if side.got != nil {
					t.Fatalf("%s child needs no histogram but got one", side.name)
				}
				continue
			}
			want := make([]float64, m*h.Stride())
			h.Fill(want, side.rows)
			if len(side.got) != len(want) {
				t.Fatalf("%s child: %d slots, want %d", side.name, len(side.got), len(want))
			}
			for i := range want {
				if math.Float64bits(side.got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s child of rows %v split at %d: slot %d = %v, a fresh fill has %v",
						side.name, rows, mid, i, side.got[i], want[i])
				}
			}
		}
		h.Put(l)
		h.Put(r)
		for len(h.free) > 0 {
			checkZero("recycled histogram", h.Get())
		}
	})
}
