// Package ruleset distills a trained tree ensemble into a compact
// probabilistic rule set — the RCProb-style simplification the ROADMAP
// names as the next order-of-magnitude labeling lever. A distilled
// Model is both
//
//   - an interpretable artifact: every selected tree's root-to-leaf
//     paths become rules (axis-aligned boxes with a value, a weight,
//     and coverage/confidence measured on a reference sample), served
//     as JSON by GET /v1/jobs/{id}/rules; and
//   - a labeling kernel: the selected, simplified trees are recompiled
//     into a flattree.Table, so the Model implements
//     metamodel.Model and drops into the chunked batch labeling
//     path at a fraction of the parent's per-point cost (the descent
//     cost is linear in the tree count; distillation keeps the
//     smallest tree subset that reproduces the parent's labels on a
//     seeded sample).
//
// Distillation is lossy by construction, so it reports its own
// fidelity: label agreement (and mean probability closeness) with the
// parent ensemble on a held-out sample the selection never saw. The
// engine enforces a fidelity threshold and falls back to the full
// ensemble when a distillation misses it.
package ruleset

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/sample"
)

// Distillable is implemented by metamodels whose ensemble structure
// can be decoded for distillation (rf.Forest and gbt.Model; svm has no
// tree structure to extract rules from). The interface is structural
// so the model packages do not import this one.
type Distillable interface {
	// DistillSource returns the decoded compiled ensemble and its
	// accumulation semantics.
	DistillSource() flattree.Ensemble
}

// ErrNotDistillable marks models without a distillable tree structure.
var ErrNotDistillable = errors.New("ruleset: model does not support distillation")

// Options configure Distill.
type Options struct {
	// Dim is the input dimension rules and samples are drawn in
	// (required).
	Dim int
	// TargetFidelity is the label agreement the tree selection aims for
	// on the selection sample (default 0.995). The holdout measurement
	// in Stats is the honest number; the selection target sits slightly
	// above typical thresholds so holdout fidelity clears them.
	TargetFidelity float64
	// MaxRules caps the total number of extracted rules (leaves across
	// the selected trees) before deduplication; 0 means unbounded. A
	// tiny budget deterministically forces a low-fidelity rule set,
	// which is how tests exercise the engine's fallback path.
	MaxRules int
	// MergeEps is the value tolerance of the lossy subtree merge: a
	// subtree collapses into one leaf only if all its leaves sit on the
	// same side of the decision boundary and their value spread is at
	// most MergeEps. 0 (the default) keeps only the lossless merges of
	// equal-valued leaves — common after depth-limited training.
	MergeEps float64
	// SampleN and HoldoutN size the selection and holdout samples
	// (defaults 4096 and 2048).
	SampleN, HoldoutN int
	// Seed drives both samples; Sampler defaults to Latin hypercube.
	Seed    int64
	Sampler sample.Sampler
}

func (o Options) withDefaults() Options {
	if o.TargetFidelity <= 0 {
		o.TargetFidelity = 0.995
	}
	if o.SampleN <= 0 {
		o.SampleN = 4096
	}
	if o.HoldoutN <= 0 {
		o.HoldoutN = 2048
	}
	if o.Sampler == nil {
		o.Sampler = sample.LatinHypercube{}
	}
	return o
}

// Stats describe a finished distillation.
type Stats struct {
	// ParentTrees and SelectedTrees count the ensemble before and after
	// tree selection; Rules counts the exported rules (after exact
	// deduplication of identical boxes).
	ParentTrees   int `json:"parent_trees"`
	SelectedTrees int `json:"selected_trees"`
	Rules         int `json:"rules"`
	// LabelFidelity is the share of held-out points whose distilled
	// hard label matches the parent's; ProbFidelity is 1 minus the mean
	// absolute probability difference on the same points.
	LabelFidelity float64 `json:"label_fidelity"`
	ProbFidelity  float64 `json:"prob_fidelity"`
}

// Distill extracts, simplifies and prunes parent's rules into a
// compact Model. parent must implement Distillable (rf, gbt);
// ErrNotDistillable otherwise. The returned model is immutable and
// safe for concurrent use.
func Distill(parent metamodel.Model, opts Options) (*Model, error) {
	d, ok := parent.(Distillable)
	if !ok {
		return nil, ErrNotDistillable
	}
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("ruleset: Options.Dim must be positive, got %d", opts.Dim)
	}
	opts = opts.withDefaults()
	src := d.DistillSource()
	if len(src.Trees) == 0 {
		return nil, fmt.Errorf("ruleset: ensemble has no trees")
	}
	boundary := 0.5
	if src.Margin {
		boundary = 0.0
	}

	// Selection and holdout samples from one seeded stream; the parent
	// labels both (its batch path, so sampling cost stays subordinate).
	rng := rand.New(rand.NewSource(opts.Seed))
	selPts := opts.Sampler.Sample(opts.SampleN, opts.Dim, rng)
	holdPts := opts.Sampler.Sample(opts.HoldoutN, opts.Dim, rng)
	parentSel := metamodel.PredictLabelBatch(parent, selPts)

	// Simplify every tree against its observed coverage, then record
	// each simplified tree's per-point leaf values and per-leaf stats
	// on the selection sample.
	simplified := make([][]flattree.Node, len(src.Trees))
	cols := make([][]float64, len(src.Trees))
	stats := make([]leafStats, len(src.Trees))
	for ti, tree := range src.Trees {
		cover := coverCounts(tree, selPts)
		simplified[ti] = simplifyTree(tree, cover, boundary, opts.MergeEps)
		cols[ti], stats[ti] = treeColumns(simplified[ti], selPts, parentSel, boundary)
	}

	selected := selectTrees(src, cols, parentSel, boundary, opts.TargetFidelity, opts.MaxRules, simplified)

	// Recompile the surviving simplified trees into a fresh table: the
	// distilled kernel runs the same branch-free lockstep descent as
	// the parent, just over far fewer trees.
	selTrees := make([][]flattree.Node, len(selected))
	for i, ti := range selected {
		selTrees[i] = simplified[ti]
	}
	m := &Model{
		table:  flattree.Compile(selTrees),
		trees:  len(selected),
		init:   src.Init,
		scale:  src.Scale,
		margin: src.Margin,
	}

	m.export = buildExport(m, src, selected, simplified, stats, opts)
	m.stats = Stats{
		ParentTrees:   len(src.Trees),
		SelectedTrees: len(selected),
		Rules:         len(m.export.Rules),
	}

	// Honest fidelity: measured on points the selection never saw.
	distLabels := make([]float64, len(holdPts))
	distProbs := make([]float64, len(holdPts))
	m.PredictLabelBatchInto(distLabels, holdPts)
	m.PredictProbBatchInto(distProbs, holdPts)
	parentLabels := metamodel.PredictLabelBatch(parent, holdPts)
	parentProbs := metamodel.PredictProbBatch(parent, holdPts)
	agree, absDiff := 0, 0.0
	for i := range holdPts {
		if distLabels[i] == parentLabels[i] {
			agree++
		}
		d := distProbs[i] - parentProbs[i]
		if d < 0 {
			d = -d
		}
		absDiff += d
	}
	m.stats.LabelFidelity = float64(agree) / float64(len(holdPts))
	m.stats.ProbFidelity = 1 - absDiff/float64(len(holdPts))
	m.export.LabelFidelity = m.stats.LabelFidelity
	m.export.ProbFidelity = m.stats.ProbFidelity

	var err error
	if m.exportJSON, err = m.export.MarshalCanonical(); err != nil {
		return nil, fmt.Errorf("ruleset: encoding export: %w", err)
	}
	return m, nil
}
