package flattree

import "math"

// Ensemble is a tree ensemble in source form together with the
// accumulation its owner applies over the leaf values: a prediction is
// Init + Scale·Σ leaf(tree, x), thresholded at 0 when Margin is true
// (gbt's log-odds margin) or divided by len(Trees) and thresholded at
// 0.5 otherwise (rf's mean vote). It is what rule-set distillation
// (internal/ruleset) consumes: models expose it by decoding their
// compiled table, so the extracted rules describe exactly the
// structure the batch kernel runs.
type Ensemble struct {
	Trees       [][]Node
	Init, Scale float64
	Margin      bool
}

// floatFromKey inverts dataset.OrderKey for non-NaN inputs: a set top
// bit marks an encoded non-negative (clear it), anything else an encoded
// negative (flip every bit). -0.0 decodes as +0.0, which OrderKey
// already collapsed at encode time.
func floatFromKey(k uint64) float64 {
	if k&0x8000_0000_0000_0000 != 0 {
		return math.Float64frombits(k ^ 0x8000_0000_0000_0000)
	}
	return math.Float64frombits(^k)
}

// Decode reconstructs the source trees of the compiled table: the
// inverse of Compile up to node numbering (Decode emits each tree in
// the table's level order) and -0.0 splits (returned as +0.0, the key
// they were encoded under). Compile(f.Decode()) is an identical table.
func (f *Table) Decode() [][]Node {
	trees := make([][]Node, len(f.Roots))
	for ti, r := range f.Roots {
		var out []Node
		// Slots queued in level order; a node's position in the queue is
		// its index in out, so children indices are known at append time.
		queue := []int{int(r)}
		for qi := 0; qi < len(queue); qi++ {
			k := queue[qi]
			meta := f.node[k+1]
			left := int(uint32(meta))
			if left == k { // self-looping slot: a leaf
				out = append(out, Node{Leaf: true, Value: f.Value[k>>1]})
				continue
			}
			out = append(out, Node{
				Feature: int32(meta >> 32),
				Split:   floatFromKey(f.node[k]),
				Left:    int32(len(queue)),
				Right:   int32(len(queue) + 1),
			})
			queue = append(queue, left, left+2)
		}
		trees[ti] = out
	}
	return trees
}
