package engine

import (
	"errors"
	"fmt"
	"time"

	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/ruleset"
)

// distillSeedOffset derives a family's distillation sampling seed from
// its training seed. Like labelSeedOffset it is chosen to never collide
// (mod variantSeedStride) with training seeds, pipeline seeds or label
// seeds, so the distillation's selection/holdout samples are
// independent of every other seeded stream of the job.
const distillSeedOffset = 7919

// resolveKernel picks the labeling kernel for one variant and returns
// the model that labels with its report. Full-kernel requests
// short-circuit; distilled requests fetch (or compute) the distillation
// from the rule-set cache under rulesetKey, then gate it behind the
// fidelity threshold. Every path that cannot honor a distilled request
// counts one fallback and returns the full ensemble — a job never fails
// because distillation did, it just labels the expensive way and says
// so.
func (x *LocalExecutor) resolveKernel(req Request, rulesetKey string, parent metamodel.Model, dim int, distillSeed int64) (metamodel.Model, KernelReport) {
	if req.effectiveLabelKernel() != "distilled" {
		return parent, KernelReport{LabelKernel: "full"}
	}
	m, _, err := x.rulesets.getOrCompute(rulesetKey, func() (*ruleset.Model, error) {
		start := time.Now()
		m, err := ruleset.Distill(parent, ruleset.Options{
			Dim:      dim,
			MaxRules: req.DistillMaxRules,
			Seed:     distillSeed,
		})
		if err != nil {
			return nil, err
		}
		// Observed on cache misses only: these instruments describe
		// distillations performed, not lookups.
		st := m.Stats()
		x.mDistillSeconds.Observe(time.Since(start).Seconds())
		x.mDistillRules.Observe(float64(st.Rules))
		x.mDistillFidelity.Observe(st.LabelFidelity)
		return m, nil
	})
	if err != nil {
		x.mDistillFallback.Inc()
		reason := "error: " + err.Error()
		if errors.Is(err, ruleset.ErrNotDistillable) {
			reason = "unsupported"
		}
		return parent, KernelReport{LabelKernel: "full", FallbackReason: reason}
	}
	fidelity := m.Stats().LabelFidelity
	if threshold := req.effectiveDistillFidelity(); fidelity < threshold {
		x.mDistillFallback.Inc()
		return parent, KernelReport{
			LabelKernel:    "full",
			LabelFidelity:  fidelity,
			FallbackReason: fmt.Sprintf("fidelity %.4f below threshold %.4g", fidelity, threshold),
		}
	}
	return m, KernelReport{LabelKernel: "distilled", LabelFidelity: fidelity, Ruleset: m.ExportJSON()}
}
