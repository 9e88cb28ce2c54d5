package ruleset

import (
	"math"

	"github.com/reds-go/reds/internal/flattree"
)

// Model is a distilled rule set in executable form: the selected,
// simplified trees recompiled into a flattree.Table so predictions run
// the same branch-free lockstep descent as the parent ensemble — over
// K selected trees instead of the parent's T, which is where the
// speedup comes from. It implements metamodel.Model, so it drops into
// core.PseudoLabel and the engine's caches unchanged. Immutable after
// Distill; safe for concurrent use.
type Model struct {
	table       *flattree.Table
	trees       int
	init, scale float64
	margin      bool
	export      *Export
	exportJSON  []byte
	stats       Stats
}

// Stats returns the distillation's size and fidelity measurements.
func (m *Model) Stats() Stats { return m.stats }

// Export returns the interpretable artifact. Callers must treat it as
// read-only — it is shared with ExportJSON and concurrent readers.
func (m *Model) Export() *Export { return m.export }

// ExportJSON returns the canonical wire encoding of the artifact,
// computed once at distillation time.
func (m *Model) ExportJSON() []byte { return m.exportJSON }

// PredictProbBatchInto implements metamodel.Model: the mean leaf
// value over the selected trees (mean kind) or the logistic link on
// the accumulated margin (margin kind).
func (m *Model) PredictProbBatchInto(dst []float64, pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	m.table.SumInto(dst, pts, len(pts[0]), m.init, m.scale)
	if m.margin {
		for i, z := range dst {
			dst[i] = sigmoid(z)
		}
		return
	}
	inv := float64(m.trees)
	for i := range dst {
		dst[i] /= inv
	}
}

// PredictLabelBatchInto implements metamodel.Model with the
// parent families' decision boundaries, raw margin > 0 for margin
// kinds (like gbt) and mean vote > 0.5 for mean kinds (like rf),
// through the table's early-exit hard-label kernel.
func (m *Model) PredictLabelBatchInto(dst []float64, pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	m.table.LabelInto(dst, pts, len(pts[0]), m.init, m.scale, m.margin)
}

// ApproxMemoryBytes implements metamodel.Model: the compiled
// table plus the retained export (rules dominate it; the JSON copy is
// charged too since the model keeps it alive).
func (m *Model) ApproxMemoryBytes() int64 {
	const ruleBytes = 96 // Rule struct + average bound allocations
	return m.table.MemoryBytes() + int64(len(m.export.Rules))*ruleBytes + int64(len(m.exportJSON))
}

func sigmoid(z float64) float64 {
	return 1 / (1 + math.Exp(-z))
}
