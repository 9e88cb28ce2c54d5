package engine

import (
	"fmt"
	"math/rand"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/gbt"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/rf"
)

// trainGateSeedOffset derives a family's train-mode gate seed from its
// training seed. Like labelSeedOffset and distillSeedOffset it is chosen
// to never collide (mod variantSeedStride) with any other seeded stream
// of the job, so the gate's holdout split is independent of training,
// labeling and distillation draws.
const trainGateSeedOffset = 4007

// trainResolution is the outcome of choosing a training mode for one
// metamodel family of a job: the mode that actually trains, the quality
// the gate measured (when one ran), and the reason a requested binned
// mode was not used (if it was not).
type trainResolution struct {
	// mode is "exact" or "binned" — the mode that trains, after any
	// fallback.
	mode string
	// quality is the gate model's holdout accuracy (0 when no gate ran:
	// exact requests, or unsupported families).
	quality float64
	// fallbackReason is non-empty when a requested binned mode was not
	// used ("unsupported", "quality ... below threshold ...").
	fallbackReason string
}

// Gate resolutions are memoized in a byte cache with a fixed budget:
// each entry is charged gateEntryBytes, so the newest 4096 (dataset,
// family, knobs, seed) resolutions stay.
const (
	gateCacheBytes = 1 << 20
	gateEntryBytes = 256
)

// resolveTrainMode picks the training mode for one metamodel family of a
// request. Exact requests short-circuit; binned requests train a cheap
// default-configuration binned model on an 80/20 split of the training
// data and gate it behind the holdout-quality threshold. Every path that
// cannot honor a binned request counts one fallback and trains the exact
// way — a job never fails because the fast path did, it just trains the
// slow way and says so. Resolutions go through the gate cache, so
// sibling variants and repeat jobs gate once.
func (x *LocalExecutor) resolveTrainMode(req Request, family string, train *dataset.Dataset, hash string, trainSeed int64) trainResolution {
	if req.effectiveTrainMode() != "binned" {
		return trainResolution{mode: "exact"}
	}
	if family == "svm" {
		// The SVM path has no tree growth to bin; the quantization would
		// change its kernel geometry, not speed it up.
		x.mTrainFallback.Inc()
		return trainResolution{mode: "exact", fallbackReason: "unsupported"}
	}
	threshold := req.effectiveTrainQuality()
	key := fmt.Sprintf("%s|%s|bins=%d|q=%g|seed=%d", hash, family, req.TrainBins, threshold, trainSeed)
	// The gate reports a failure as a fallback, never as an error.
	res, _, _ := x.gates.getOrCompute(key, func() (trainResolution, error) {
		res := gateTrainMode(family, train, req.TrainBins, threshold, trainSeed+trainGateSeedOffset)
		if res.fallbackReason != "" {
			x.mTrainFallback.Inc()
		}
		return res, nil
	})
	return res
}

// gateTrainMode trains the family's default-configuration binned model
// on 80% of the training data and measures its holdout accuracy against
// the threshold. The gate is deliberately small — one untuned ensemble —
// so clearing it costs a fraction of the tuned grid it unlocks.
func gateTrainMode(family string, train *dataset.Dataset, bins int, threshold float64, gateSeed int64) trainResolution {
	rng := rand.New(rand.NewSource(gateSeed))
	fit, holdout := dataset.Split(train, 0.2, rng)
	var gate metamodel.Trainer
	switch family {
	case "xgb":
		gate = &gbt.BinnedTrainer{Bins: bins}
	default: // "rf"
		gate = &rf.BinnedTrainer{Bins: bins}
	}
	m, err := gate.Train(fit, rng)
	if err != nil {
		return trainResolution{mode: "exact", fallbackReason: "error: " + err.Error()}
	}
	quality := metamodel.Accuracy(m, holdout)
	if quality < threshold {
		return trainResolution{
			mode:           "exact",
			quality:        quality,
			fallbackReason: fmt.Sprintf("quality %.4f below threshold %.4g", quality, threshold),
		}
	}
	return trainResolution{mode: "binned", quality: quality}
}
