package rf

import "github.com/reds-go/reds/internal/flattree"

// flatten compiles the forest into the shared contiguous node-table
// representation (see internal/flattree for the layout and the
// branch-free lockstep descent) once, lazily, on the first batch
// call. The pointer-linked per-tree slices stay the canonical
// representation: training and the per-point path keep using them.
func (f *Forest) flatten() *flattree.Table {
	f.flatOnce.Do(func() {
		trees := make([][]flattree.Node, len(f.trees))
		for ti, t := range f.trees {
			nodes := make([]flattree.Node, len(t.nodes))
			for i, nd := range t.nodes {
				if nd.feature < 0 {
					nodes[i] = flattree.Node{Leaf: true, Value: nd.value}
				} else {
					nodes[i] = flattree.Node{
						Feature: int32(nd.feature),
						Split:   nd.split,
						Left:    int32(nd.left),
						Right:   int32(nd.right),
					}
				}
			}
			trees[ti] = nodes
		}
		f.flat = flattree.Compile(trees)
	})
	return f.flat
}

// DistillSource exposes the forest to rule-set distillation
// (internal/ruleset): the decoded node table plus the accumulation
// PredictProbBatchInto applies (mean vote — init 0, scale 1,
// thresholded at 0.5). Decoding from the compiled table rather than
// from f.trees guarantees the extracted rules describe exactly the
// structure the batch kernel runs.
func (f *Forest) DistillSource() flattree.Ensemble {
	return flattree.Ensemble{Trees: f.flatten().Decode(), Init: 0, Scale: 1, Margin: false}
}

// PredictProbBatchInto implements metamodel.BatchModel: mean leaf value
// across trees for every point. The table accumulates trees in index
// order per point, so the result is bit-identical to PredictProb.
func (f *Forest) PredictProbBatchInto(dst []float64, pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	f.flatten().SumInto(dst, pts, len(pts[0]), 0, 1)
	inv := float64(len(f.trees))
	for i := range dst {
		dst[i] /= inv
	}
}

// PredictLabelBatchInto implements metamodel.BatchModel with the same
// majority-vote boundary as PredictLabel: the table's hard-label kernel
// stops descending a point's trees once its vote is settled.
func (f *Forest) PredictLabelBatchInto(dst []float64, pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	f.flatten().LabelInto(dst, pts, len(pts[0]), 0, 1, false)
}
