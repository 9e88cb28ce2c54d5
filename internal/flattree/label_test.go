package flattree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// labelLeaves is the leaf palette of the fuzzed ensembles: votes and
// margins, signed zeros, values whose sums land exactly on a cut,
// extremes whose sums overflow, a subnormal, and non-finite leaves.
var labelLeaves = []float64{
	0, 1, 0.5, -1, math.Copysign(0, -1), 0.25, -0.75, 3, 0.1, -0.3,
	1e-300, -1e300, math.MaxFloat64, 0x1p-1074, math.Inf(1), math.Inf(-1), math.NaN(),
}

// labelInitScales are the (init, scale) pairs the fuzzed ensembles are
// summed with: rf's (0, 1), gbt-like shrinkages, a negative and a zero
// scale, and non-finite or overflowing ones.
var labelInitScales = [][2]float64{
	{0, 1}, {0.2, 0.3}, {-1.5, 0.05}, {0, -1}, {1, 0}, {-0.1, 0.1},
	{math.Inf(1), 1}, {0, math.NaN()}, {1e300, 1e300}, {0, math.Inf(-1)},
}

// ownerLabel is the threshold rf, gbt and ruleset apply to a SumInto
// sum: margin > 0, or mean vote > 0.5.
func ownerLabel(s float64, trees int, margin bool) float64 {
	if margin {
		if s > 0 {
			return 1
		}
		return 0
	}
	if s/float64(trees) > 0.5 {
		return 1
	}
	return 0
}

// checkLabelInto builds a seeded random ensemble of nTrees trees whose
// leaves come from the labelLeaves entries selected by the leaves bit
// mask (all when it selects none) and requires LabelInto to equal
// SumInto plus the owner's threshold on every point.
func checkLabelInto(t *testing.T, seed int64, nTrees int, margin bool, initScale [2]float64, leaves uint32) {
	t.Helper()
	var palette []float64
	for i, v := range labelLeaves {
		if leaves&(1<<i) != 0 {
			palette = append(palette, v)
		}
	}
	if len(palette) == 0 {
		palette = labelLeaves
	}
	rng := rand.New(rand.NewSource(seed))
	const dim = 3
	splits := []float64{-1, 0, 0.25, 0.5, 0.75, 1}
	trees := make([][]Node, nTrees)
	for ti := range trees {
		var nodes []Node
		var grow func(depth int) int32
		grow = func(depth int) int32 {
			idx := int32(len(nodes))
			nodes = append(nodes, Node{})
			if depth == 0 || rng.Intn(3) == 0 {
				nodes[idx] = Node{Leaf: true, Value: palette[rng.Intn(len(palette))]}
				return idx
			}
			nodes[idx] = Node{Feature: int32(rng.Intn(dim)), Split: splits[rng.Intn(len(splits))]}
			l := grow(depth - 1)
			r := grow(depth - 1)
			nodes[idx].Left, nodes[idx].Right = l, r
			return idx
		}
		grow(1 + rng.Intn(3))
		trees[ti] = nodes
	}
	coords := append([]float64{math.NaN(), math.Inf(1), math.Inf(-1)}, splits...)
	pts := make([][]float64, rng.Intn(70))
	for i := range pts {
		pts[i] = make([]float64, dim)
		for j := range pts[i] {
			if rng.Intn(2) == 0 {
				pts[i][j] = coords[rng.Intn(len(coords))]
			} else {
				pts[i][j] = 2*rng.Float64() - 0.5
			}
		}
	}

	tab := Compile(trees)
	init, scale := initScale[0], initScale[1]
	sums := make([]float64, len(pts))
	tab.SumInto(sums, pts, dim, init, scale)
	got := make([]float64, len(pts))
	for i := range got {
		got[i] = -1 // LabelInto must overwrite every entry
	}
	tab.LabelInto(got, pts, dim, init, scale, margin)
	for i, s := range sums {
		if want := ownerLabel(s, nTrees, margin); got[i] != want {
			t.Fatalf("seed %d, %d trees, margin %v, (init, scale) %v, point %d %v: LabelInto %v, SumInto %v gives %v",
				seed, nTrees, margin, initScale, i, pts[i], got[i], s, want)
		}
	}
}

// FuzzLabelInto holds the early-exit hard-label kernel to SumInto plus
// the owner's threshold on small fuzzed ensembles of both kinds. Its
// seed corpus sweeps every (init, scale) pair, both kinds, several leaf
// palettes and tree counts on each side of the block size.
func FuzzLabelInto(f *testing.F) {
	const ( // bit masks over labelLeaves
		zeroOne  = 1<<0 | 1<<1
		half     = 1 << 2
		finite   = 1<<10 - 1
		extremes = 1<<10 | 1<<11 | 1<<12 | 1<<13
		all      = 1<<17 - 1
	)
	f.Add(int64(0), uint8(2), false, uint8(0), uint32(half)) // two trees voting 0.5: label 0
	seed := int64(0)
	for pair := range labelInitScales {
		for _, leaves := range []uint32{zeroOne, zeroOne | half, finite, finite | extremes, all} {
			for _, margin := range []bool{false, true} {
				for _, trees := range []uint8{0, 1, 8, 9, 16, 23, 47} {
					seed++
					f.Add(seed, trees, margin, uint8(pair), leaves)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, trees uint8, margin bool, pair uint8, leaves uint32) {
		checkLabelInto(t, seed, int(trees)%48, margin, labelInitScales[int(pair)%len(labelInitScales)], leaves)
	})
}

// TestLabelIntoSettlesOnTheCut pins sums on or next to the cut across
// the exit checks. In the mean-kind ensemble half the trees vote 1 and
// half split, so a point stays undecided until the last tree and may
// end exactly on one half (label 0).
func TestLabelIntoSettlesOnTheCut(t *testing.T) {
	vote := func(v float64) []Node { return []Node{{Leaf: true, Value: v}} }
	above := []Node{{Feature: 0, Split: 0.5, Left: 1, Right: 2}, {Leaf: true, Value: 0}, {Leaf: true, Value: 1}}
	var trees [][]Node
	for i := 0; i < 10; i++ {
		trees = append(trees, vote(1), above) // above votes 1 only for x > 0.5
	}
	tab := Compile(trees)
	pts := [][]float64{{0}, {1}, {0.5}, {math.NaN()}}
	got := make([]float64, len(pts))
	tab.LabelInto(got, pts, 1, 0, 1, false)
	if want := []float64{0, 1, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("mean kind: got %v, want %v", got, want)
	}
	// Margin kind: init cancels ten constant trees, so the sum is one
	// rounding error above zero. Without its rounding margin the exit
	// after the first block would see p + H = 0 and label the point 0.
	leaves := []float64{0.888, 0.538, 0.703, 0.355, 0.451, 0.51, 0.605, 0.156, 0.266, 0.828}
	var margins [][]Node
	for _, v := range leaves {
		margins = append(margins, vote(v))
	}
	init := 0.0
	for i := len(leaves) - 1; i >= 0; i-- {
		init -= leaves[i]
	}
	tab = Compile(margins)
	sums := make([]float64, 1)
	tab.SumInto(sums, pts[:1], 1, init, 1)
	if !(sums[0] > 0 && sums[0] < 1e-15) {
		t.Fatalf("margin kind: sum %v is not one rounding above zero", sums[0])
	}
	tab.LabelInto(got[:1], pts[:1], 1, init, 1, true)
	if got[0] != 1 {
		t.Fatalf("margin kind: sum %v, got label %v, want 1", sums[0], got[0])
	}
}
