package ruleset

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/metamodel"
)

// randomEnsemble grows random depth-bounded trees over dim features
// with splits drawn from a small value pool (guaranteeing repeated
// split values across trees, the dedup-relevant case) and leaf values
// in the given range.
func randomEnsemble(rng *rand.Rand, trees, dim, depth int, leafLo, leafHi float64) [][]flattree.Node {
	splitPool := []float64{0.1, 0.25, 0.5, 0.5, 0.75, 0.9}
	out := make([][]flattree.Node, trees)
	for ti := range out {
		var nodes []flattree.Node
		var grow func(d int) int32
		grow = func(d int) int32 {
			idx := int32(len(nodes))
			nodes = append(nodes, flattree.Node{})
			if d == 0 || rng.Float64() < 0.25 {
				nodes[idx] = flattree.Node{Leaf: true, Value: leafLo + rng.Float64()*(leafHi-leafLo)}
				return idx
			}
			nd := flattree.Node{
				Feature: int32(rng.Intn(dim)),
				Split:   splitPool[rng.Intn(len(splitPool))],
			}
			nodes[idx] = nd
			nodes[idx].Left = grow(d - 1)
			nodes[idx].Right = grow(d - 1)
			return idx
		}
		grow(depth)
		out[ti] = nodes
	}
	return out
}

// randomPoints draws points including NaN/±Inf coordinates and exact
// split-pool values.
func randomPoints(rng *rand.Rand, n, dim int) [][]float64 {
	specials := []float64{0.1, 0.25, 0.5, 0.75, 0.9, math.Inf(1), math.Inf(-1), math.NaN(), 0, 1}
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dim)
		for j := range row {
			if rng.Float64() < 0.3 {
				row[j] = specials[rng.Intn(len(specials))]
			} else {
				row[j] = rng.Float64()
			}
		}
		pts[i] = row
	}
	return pts
}

// TestRulesPartitionLeafRegions is the box-containment property: for
// any point, exactly one of a tree's extracted rules matches, and it
// is the rule of the leaf the descent reaches — i.e. every rule's box
// is exactly its leaf's region, adversarial coordinates included.
func TestRulesPartitionLeafRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 30; trial++ {
		dim := 2 + rng.Intn(5)
		tree := randomEnsemble(rng, 1, dim, 1+rng.Intn(6), 0, 1)[0]
		st := leafStats{cover: make([]float64, len(tree)), agree: make([]float64, len(tree))}
		rules := treeRules(tree, st, 0.5, 1)
		if len(rules) != countLeaves(tree) {
			t.Fatalf("trial %d: %d rules for %d leaves", trial, len(rules), countLeaves(tree))
		}
		for _, x := range randomPoints(rng, 200, dim) {
			leafValue := tree[flattree.Descend(tree, x)].Value
			matched := 0
			for ri := range rules {
				if rules[ri].matches(x) {
					matched++
					if rules[ri].Value != leafValue {
						t.Fatalf("trial %d: matched rule value %v, leaf value %v at %v",
							trial, rules[ri].Value, leafValue, x)
					}
				}
			}
			if matched != 1 {
				t.Fatalf("trial %d: %d rules match point %v, want exactly 1", trial, matched, x)
			}
		}
	}
}

// TestMergeNeverFlipsArgmax is the merge-safety property: a simplified
// tree assigns every covered point a value on the same side of the
// decision boundary as the original tree — lossy merging (MergeEps > 0)
// may move values but never across the boundary.
func TestMergeNeverFlipsArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 30; trial++ {
		dim := 2 + rng.Intn(4)
		margin := trial%2 == 1
		boundary, lo, hi := 0.5, 0.0, 1.0
		if margin {
			boundary, lo, hi = 0, -1, 1
		}
		tree := randomEnsemble(rng, 1, dim, 2+rng.Intn(5), lo, hi)[0]
		pts := randomPoints(rng, 300, dim)
		cover := coverCounts(tree, pts)
		eps := rng.Float64() * 0.3
		simp := simplifyTree(tree, cover, boundary, eps)
		if countLeaves(simp) > countLeaves(tree) {
			t.Fatalf("trial %d: simplification grew the tree", trial)
		}
		for _, x := range pts {
			v0 := tree[flattree.Descend(tree, x)].Value
			v1 := simp[flattree.Descend(simp, x)].Value
			if (v0 > boundary) != (v1 > boundary) {
				t.Fatalf("trial %d: merge flipped argmax at %v: %v -> %v (boundary %v, eps %v)",
					trial, x, v0, v1, boundary, eps)
			}
			if d := math.Abs(v0 - v1); d > eps+1e-12 {
				t.Fatalf("trial %d: merge moved value by %v > eps %v", trial, d, eps)
			}
		}
	}
}

// TestDedupPreservesEvaluation asserts deduplicating identical boxes
// across trees never changes the rule set's labels (and moves scores
// at most by reassociation noise): the weighted-average combination is
// exact because a point satisfies either all merged copies or none.
func TestDedupPreservesEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 20; trial++ {
		dim := 2 + rng.Intn(3)
		// Shallow trees over a shared split pool make identical boxes
		// across trees likely.
		trees := randomEnsemble(rng, 3+rng.Intn(4), dim, 1+rng.Intn(2), 0, 1)
		var all []Rule
		deduped := map[string]int{}
		var merged []Rule
		for _, tree := range trees {
			st := leafStats{cover: make([]float64, len(tree)), agree: make([]float64, len(tree))}
			for _, r := range treeRules(tree, st, 0.5, 1) {
				all = append(all, r)
				key := condKey(r.Conds)
				if at, ok := deduped[key]; ok {
					m := &merged[at]
					w := m.Weight + r.Weight
					m.Value = (m.Value*m.Weight + r.Value*r.Weight) / w
					m.Weight = w
					continue
				}
				deduped[key] = len(merged)
				merged = append(merged, r)
			}
		}
		if len(merged) == len(all) {
			continue // no duplicates this trial; the pool makes most trials merge
		}
		plain := Export{Kind: KindMean, Dim: dim, Trees: len(trees), ParentTrees: len(trees), Scale: 1, Rules: all}
		dedup := Export{Kind: KindMean, Dim: dim, Trees: len(trees), ParentTrees: len(trees), Scale: 1, Rules: merged}
		for _, x := range randomPoints(rng, 200, dim) {
			s0, s1 := plain.ScoreAt(x), dedup.ScoreAt(x)
			if math.Abs(s0-s1) > 1e-9 {
				t.Fatalf("trial %d: dedup moved score %v -> %v at %v", trial, s0, s1, x)
			}
			if l0, l1 := plain.LabelAt(x), dedup.LabelAt(x); l0 != l1 && math.Abs(s0/float64(len(trees))-0.5) > 1e-9 {
				t.Fatalf("trial %d: dedup flipped label at %v", trial, x)
			}
		}
	}
}

// TestExportRoundTripsByteIdentically is the wire-format property:
// decode(encode(export)) re-encodes to the same bytes, for real
// distilled models of both kinds.
func TestExportRoundTripsByteIdentically(t *testing.T) {
	train := tiedTrainData(300, 6, 51)
	models := map[string]*Model{}
	rfParent := trainRF(t, train, 60, 52)
	gbtParent := trainGBT(t, train, 52)
	for name, parent := range map[string]metamodel.Model{"rf": rfParent, "gbt": gbtParent} {
		m, err := Distill(parent, Options{Dim: 6, Seed: 53, MergeEps: 0.02})
		if err != nil {
			t.Fatalf("%s distill: %v", name, err)
		}
		models[name] = m
	}
	for name, m := range models {
		b1 := m.ExportJSON()
		e, err := DecodeExport(b1)
		if err != nil {
			t.Fatalf("%s: decoding own export: %v", name, err)
		}
		b2, err := e.MarshalCanonical()
		if err != nil {
			t.Fatalf("%s: re-encode: %v", name, err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: round trip not byte-identical:\n%s\nvs\n%s", name, b1, b2)
		}
	}
}
