package gbt

import "github.com/reds-go/reds/internal/flattree"

// flatten compiles the boosted ensemble into the shared contiguous
// node-table representation (see internal/flattree for the layout and
// the branch-free lockstep descent) once, lazily, on the first batch
// call. The per-tree node slices stay the canonical representation:
// training and the per-point path keep using them.
func (m *Model) flatten() *flattree.Table {
	m.flatOnce.Do(func() {
		trees := make([][]flattree.Node, len(m.trees))
		for ti := range m.trees {
			src := m.trees[ti].nodes
			nodes := make([]flattree.Node, len(src))
			for i, nd := range src {
				if nd.feature < 0 {
					nodes[i] = flattree.Node{Leaf: true, Value: nd.weight}
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
		m.flat = flattree.Compile(trees)
	})
	return m.flat
}

// DistillSource exposes the boosted ensemble to rule-set distillation
// (internal/ruleset): the decoded node table plus the accumulation the
// batch kernels apply (margin — init base, scale eta, thresholded at
// 0). Decoding from the compiled table rather than from m.trees
// guarantees the extracted rules describe exactly the structure the
// batch kernel runs.
func (m *Model) DistillSource() flattree.Ensemble {
	return flattree.Ensemble{Trees: m.flatten().Decode(), Init: m.base, Scale: m.eta, Margin: true}
}

// PredictProbBatchInto implements metamodel.BatchModel via the logistic
// link on the batched margins. The table accumulates base + eta·leaf
// per point in tree index order — the exact floating-point sequence of
// the per-point Margin — so the result is bit-identical to
// PredictProb.
func (m *Model) PredictProbBatchInto(dst []float64, pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	m.flatten().SumInto(dst, pts, len(pts[0]), m.base, m.eta)
	for i, z := range dst {
		dst[i] = sigmoid(z)
	}
}

// PredictLabelBatchInto implements metamodel.BatchModel with the same
// margin > 0 boundary as PredictLabel (thresholding the raw margin,
// not the squashed probability, so ties behave identically): the
// table's hard-label kernel stops descending a point's trees once the
// margin's sign is settled.
func (m *Model) PredictLabelBatchInto(dst []float64, pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	m.flatten().LabelInto(dst, pts, len(pts[0]), m.base, m.eta, true)
}
