package flattree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
)

// TestReadTableRoundTrip: random tables, with ±Inf and ±0 leaves among
// them, decode at their width to the compiled table field for field,
// early-exit leaf bounds included, and encode back to the same bytes.
func TestReadTableRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	special := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for trial := 0; trial < 20; trial++ {
		trees := make([][]Node, 1+rng.Intn(20))
		for i := range trees {
			trees[i] = randomTree(rng, 1+rng.Intn(6))
			for k := range trees[i] {
				if trees[i][k].Leaf && rng.Intn(5) == 0 {
					trees[i][k].Value = special[rng.Intn(len(special))]
				}
			}
		}
		want := Compile(trees)
		data := want.AppendBinary(nil)
		got, err := ReadTable(data, 4)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: decoded table differs from the compiled one", trial)
		}
		if again := got.AppendBinary(nil); !reflect.DeepEqual(again, data) {
			t.Fatalf("trial %d: re-encoding differs", trial)
		}
	}
}

// TestReadTableRejectsMalformed decodes corrupted encodings of a known
// two-tree table. Tree A is slots 0–2: a split on x1 over two leaves.
// Tree B is slots 3–7: a split on x2 whose left child (slot 4) splits
// on x0 over slots 6 and 7, and whose right child is the leaf in slot 5.
func TestReadTableRejectsMalformed(t *testing.T) {
	good := Compile([][]Node{
		{{Feature: 1, Split: 0.5, Left: 1, Right: 2}, {Leaf: true, Value: 1}, {Leaf: true, Value: 2}},
		{{Feature: 2, Split: 0.5, Left: 1, Right: 4}, {Feature: 0, Split: 0.25, Left: 2, Right: 3},
			{Leaf: true, Value: 3}, {Leaf: true, Value: 4}, {Leaf: true, Value: 5}},
	}).AppendBinary(nil)
	if _, err := ReadTable(good, 3); err != nil {
		t.Fatalf("the uncorrupted table does not decode: %v", err)
	}
	const slots = 8 + 4*2 // slot k's words start at slots + 24k
	put := func(off int, v uint64) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint64(b[off:], v) }
	}
	cases := []struct {
		name  string
		width int
		edit  func([]byte)
		size  int // length to cut the payload to, 0 = keep
	}{
		{"truncated", 3, nil, len(good) - 1},
		{"header only", 3, nil, 8},
		{"more trees than bytes", 3, func(b []byte) { binary.LittleEndian.PutUint32(b, 3) }, 0},
		{"first root not slot 0", 3, func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 2) }, 0},
		{"roots not ascending", 3, func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0) }, 0},
		{"odd root", 3, func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 7) }, 0},
		{"root past the table", 3, func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 16) }, 0},
		{"child before its parent", 3, put(slots+24*4+8, 6), 0},
		{"child in the next tree", 3, put(slots+24*0+8, 1<<32|4), 0},
		{"odd child", 3, put(slots+24*0+8, 1<<32|1), 0},
		{"self-looping slot without the leaf key", 3, put(slots+24*1, dataset.OrderKey(0.5)), 0},
		{"internal self-loop", 3, put(slots+24*3+8, 2<<32|6), 0},
		{"feature at the width", 3, put(slots+24*3+8, 3<<32|8), 0},
		{"leaf reading past the width", 3, put(slots+24*5+8, 3<<32|10), 0},
		{"narrower points", 2, nil, 0},
	}
	for _, c := range cases {
		data := append([]byte(nil), good...)
		if c.edit != nil {
			c.edit(data)
		}
		if c.size > 0 {
			data = data[:c.size]
		}
		if _, err := ReadTable(data, c.width); err == nil {
			t.Errorf("%s: decoded", c.name)
		}
	}
}
