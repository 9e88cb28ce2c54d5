package flattree

import (
	"math"
	"math/rand"
	"testing"
)

// descendSplits are the fuzzed trees' thresholds: signed zeros,
// subnormals, ±Inf and the float extremes beside ordinary values.
var descendSplits = []float64{
	0, math.Copysign(0, -1), 0x1p-1074, -0x1p-1074, 0x1p-1030, 0.5, -1, 1,
	math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
}

// descendCoords are the fuzzed points' coordinates: every split, so a
// point can sit exactly on one, and NaN of both signs.
var descendCoords = append([]float64{math.NaN(), math.Copysign(math.NaN(), -1)}, descendSplits...)

// descendLeaf is the value of a fuzzed tree's k-th leaf. Values are
// distinct (one NaN, -0 but no +0), so a point routed to the wrong leaf
// reads a different value.
func descendLeaf(k int) float64 {
	special := []float64{math.NaN(), math.Copysign(0, -1), 0x1p-1074, math.Inf(1), math.Inf(-1), math.MaxFloat64}
	if k < len(special) {
		return special[k]
	}
	return float64(k)
}

// descendCase builds a tree over dim 3 from shape (one byte per node:
// bit 0 clear makes a leaf, the rest picks the feature, the next byte
// the split; a leaf when the bytes run out or at depth 8) and points
// from coords (one byte per coordinate: a descendCoords entry, or the
// float just above or below it).
func descendCase(shape, coords []byte) ([]Node, [][]float64) {
	const dim = 3
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return int(b)
	}
	var tree []Node
	leaves := 0
	var grow func(depth int) int32
	grow = func(depth int) int32 {
		idx := int32(len(tree))
		tree = append(tree, Node{})
		b := next()
		if depth == 0 || b&1 == 0 {
			tree[idx] = Node{Leaf: true, Value: descendLeaf(leaves)}
			leaves++
			return idx
		}
		tree[idx] = Node{Feature: int32((b >> 1) % dim), Split: descendSplits[next()%len(descendSplits)]}
		l := grow(depth - 1)
		r := grow(depth - 1)
		tree[idx].Left, tree[idx].Right = l, r
		return idx
	}
	grow(8)
	var pts [][]float64
	for len(coords) >= dim && len(pts) < 64 {
		x := make([]float64, dim)
		for j, b := range coords[:dim] {
			v := descendCoords[int(b>>2)%len(descendCoords)]
			switch b & 3 {
			case 1:
				v = math.Nextafter(v, math.Inf(1))
			case 2:
				v = math.Nextafter(v, math.Inf(-1))
			}
			x[j] = v
		}
		pts = append(pts, x)
		coords = coords[dim:]
	}
	return tree, pts
}

// FuzzDescend holds the per-point walk to the compiled descent: the
// leaf Descend reaches must hold the value SumInto adds at init 0 and
// scale 1 (two NaNs count as equal), on trees and points with signed
// zeros, subnormals, ±Inf, NaN of both signs and coordinates equal to a
// split.
func FuzzDescend(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		shape := make([]byte, 1+rng.Intn(64))
		coords := make([]byte, 3*rng.Intn(40))
		rng.Read(shape)
		rng.Read(coords)
		f.Add(shape, coords)
	}
	f.Fuzz(func(t *testing.T, shape, coords []byte) {
		tree, pts := descendCase(shape, coords)
		sums := make([]float64, len(pts))
		Compile([][]Node{tree}).SumInto(sums, pts, 3, 0, 1)
		for i, x := range pts {
			got := tree[Descend(tree, x)].Value
			if got != sums[i] && !(math.IsNaN(got) && math.IsNaN(sums[i])) {
				t.Fatalf("point %d %v: Descend reaches %v, SumInto adds %v\ntree: %+v", i, x, got, sums[i], tree)
			}
		}
	})
}
