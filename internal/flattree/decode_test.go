package flattree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
)

// randomTree grows a random binary tree with depth-bounded splits,
// including negative, zero and repeated split values.
func randomTree(rng *rand.Rand, depth int) []Node {
	var nodes []Node
	var grow func(d int) int32
	grow = func(d int) int32 {
		idx := int32(len(nodes))
		nodes = append(nodes, Node{})
		if d == 0 || rng.Float64() < 0.3 {
			nodes[idx] = Node{Leaf: true, Value: rng.NormFloat64()}
			return idx
		}
		splits := []float64{rng.Float64(), -rng.Float64(), 0, 0.5, 1e-300, math.MaxFloat64}
		nd := Node{
			Feature: int32(rng.Intn(4)),
			Split:   splits[rng.Intn(len(splits))],
		}
		nodes[idx] = nd
		nodes[idx].Left = grow(d - 1)
		nodes[idx].Right = grow(d - 1)
		return idx
	}
	grow(depth)
	return nodes
}

// TestDecodeRoundTrip asserts Compile(Decode(table)) reproduces the
// table bit for bit, and that the decoded trees evaluate identically.
func TestDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		trees := make([][]Node, 1+rng.Intn(8))
		for i := range trees {
			trees[i] = randomTree(rng, 1+rng.Intn(6))
		}
		orig := Compile(trees)
		decoded := orig.Decode()
		again := Compile(decoded)
		if !reflect.DeepEqual(orig.node, again.node) {
			t.Fatalf("trial %d: node words differ after decode/compile round trip", trial)
		}
		if !reflect.DeepEqual(orig.Value, again.Value) {
			t.Fatalf("trial %d: leaf values differ after round trip", trial)
		}
		if !reflect.DeepEqual(orig.Roots, again.Roots) {
			t.Fatalf("trial %d: roots differ after round trip", trial)
		}

		pts := make([][]float64, 64)
		for i := range pts {
			row := make([]float64, 4)
			for j := range row {
				switch rng.Intn(8) {
				case 0:
					row[j] = math.Inf(1)
				case 1:
					row[j] = math.Inf(-1)
				case 2:
					row[j] = math.NaN()
				default:
					row[j] = rng.NormFloat64()
				}
			}
			pts[i] = row
		}
		a := make([]float64, len(pts))
		b := make([]float64, len(pts))
		orig.SumInto(a, pts, 4, 0.25, 0.1)
		again.SumInto(b, pts, 4, 0.25, 0.1)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("trial %d: point %d evaluates differently: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

// TestFloatFromKey asserts the key codec is bijective on non-NaN
// floats (with -0.0 collapsed onto +0.0 by design).
func TestFloatFromKey(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), 1e-300, -1e-300}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, v := range vals {
		got := floatFromKey(dataset.OrderKey(v))
		want := v + 0 // collapse -0.0 like OrderKey does
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("floatFromKey(OrderKey(%v)) = %v, want %v", v, got, want)
		}
	}
	// Keys ordered like floats must decode back in the same order.
	if floatFromKey(dataset.OrderKey(1.5)) <= floatFromKey(dataset.OrderKey(1.25)) {
		t.Fatal("decoded key order broken")
	}
}
