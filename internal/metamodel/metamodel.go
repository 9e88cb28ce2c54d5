// Package metamodel defines the interface between REDS and its
// intermediate machine-learning models ("AM" in Algorithm 4 of the paper),
// plus a grid-search cross-validation tuner standing in for the caret
// hyperparameter-optimization the paper uses.
package metamodel

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/par"
)

// Model is a trained metamodel f_am. REDS labels 10^4-10^5 points per
// run (Algorithm 4, lines 4-6), so a model labels whole slices of
// points over its compiled state: rf and gbt descend one contiguous
// node table, svm evaluates its kernel in blocks over its
// support-vector matrix. Both methods are safe for concurrent calls on
// disjoint dst/pts slices, and len(dst) must equal len(pts).
type Model interface {
	// PredictProbBatchInto fills dst[i] with the estimated
	// P(y=1|pts[i]), in [0,1].
	PredictProbBatchInto(dst []float64, pts [][]float64)
	// PredictLabelBatchInto fills dst[i] with the hard 0/1 label of
	// pts[i], i.e. I(f_am(x) > bnd) with the model's native decision
	// boundary (not a fixed 0.5 threshold on probabilities: gbt and svm
	// threshold their raw margin).
	PredictLabelBatchInto(dst []float64, pts [][]float64)
	// ApproxMemoryBytes estimates the model's resident size in bytes.
	// The engine's model cache weighs its entries by it (a tuned
	// 500-tree forest should not cost the same cache budget as a
	// 20-vector SVM). It only needs to be proportional to reality, not
	// exact.
	ApproxMemoryBytes() int64
}

// Trainer fits a Model to a dataset. Implementations must be deterministic
// given the RNG.
type Trainer interface {
	// Name identifies the metamodel family ("rf", "xgb", "svm").
	Name() string
	// Train fits the model.
	Train(d *dataset.Dataset, rng *rand.Rand) (Model, error)
}

// PredictProbBatch evaluates P(y=1|x) on every point in parallel.
func PredictProbBatch(m Model, pts [][]float64) []float64 {
	out, _ := PredictProbBatchCtx(context.Background(), m, pts, nil)
	return out
}

// PredictLabelBatch evaluates the hard label on every point in
// parallel.
func PredictLabelBatch(m Model, pts [][]float64) []float64 {
	out, _ := PredictLabelBatchCtx(context.Background(), m, pts, nil)
	return out
}

// PredictProbBatchCtx is PredictProbBatch with cancellation and
// progress. progress, when non-nil, is called after every completed
// chunk with the running total of labeled points; it may be called
// concurrently from several goroutines and must be safe for that.
// Cancelling ctx stops the scan between chunks and returns ctx.Err().
func PredictProbBatchCtx(ctx context.Context, m Model, pts [][]float64, progress func(done, total int)) ([]float64, error) {
	return predictChunks(ctx, pts, m.PredictProbBatchInto, progress)
}

// PredictLabelBatchCtx is the hard-label counterpart of
// PredictProbBatchCtx.
func PredictLabelBatchCtx(ctx context.Context, m Model, pts [][]float64, progress func(done, total int)) ([]float64, error) {
	return predictChunks(ctx, pts, m.PredictLabelBatchInto, progress)
}

// batchChunk is the number of points one kernel call labels. It
// bounds how stale a progress report or a cancellation check can be.
const batchChunk = 512

// predictChunks shards kernel over pts with par.For. Points are handed
// out in fixed-size chunks so workers stay balanced even when per-point
// cost varies (deep trees vs early exits); dst[i] receives the
// prediction for pts[i]. On cancellation the partially-filled slice is
// discarded.
func predictChunks(ctx context.Context, pts [][]float64, kernel func(dst []float64, pts [][]float64), progress func(done, total int)) ([]float64, error) {
	out := make([]float64, len(pts))
	var done atomic.Int64
	par.For((len(pts)+batchChunk-1)/batchChunk, func(_, c int) {
		if ctx.Err() != nil {
			return
		}
		lo := c * batchChunk
		hi := min(lo+batchChunk, len(pts))
		kernel(out[lo:hi], pts[lo:hi])
		if progress != nil {
			progress(int(done.Add(int64(hi-lo))), len(pts))
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Accuracy returns the share of points whose hard prediction matches the
// binary label. Inside a tuning cell its labeling takes only idle cores.
func Accuracy(m Model, d *dataset.Dataset) float64 {
	if d.N() == 0 {
		return 0
	}
	preds := PredictLabelBatch(m, d.X)
	correct := 0
	for i, pred := range preds {
		want := 0.0
		if d.Y[i] >= 0.5 {
			want = 1
		}
		if pred == want {
			correct++
		}
	}
	return float64(correct) / float64(d.N())
}

// SubsetTrainer is optionally implemented by trainers that can fit on a
// row subset of a shared dataset without materializing a sub-dataset.
// The tuner uses it to evaluate every fold × grid cell against one
// shared view of the parent data — for the histogram-binned rf/gbt
// trainers that means bin edges and codes are computed once per dataset
// and every cell trains through per-fold row masks instead of per-fold
// column copies and re-sorts.
type SubsetTrainer interface {
	Trainer
	// TrainSubset fits on the rows (indices into d) of the shared
	// dataset d.
	TrainSubset(d *dataset.Dataset, rows []int, rng *rand.Rand) (Model, error)
}

// Tuned wraps a parameterized trainer family with k-fold cross-validated
// grid search, standing in for the default caret tuning of Section 8.4.3.
type Tuned struct {
	// Family names the underlying metamodel.
	Family string
	// Grid enumerates candidate trainers.
	Grid []Trainer
	// Folds is the number of CV folds (default 3).
	Folds int
}

// Name implements Trainer.
func (t *Tuned) Name() string { return t.Family }

// candidateSeed derives the training seed of one fold × grid candidate
// from the tuning run's base seed, the candidate's configuration (type
// and field values, not grid position) and the fold index. Identity-based
// derivation makes the tuning outcome invariant under grid reordering,
// not just under evaluation order. A trainer with a TuningKey method
// spells its configuration itself, so its struct can change without
// re-seeding tuned results; any other is spelled %T%+v.
func candidateSeed(base int64, tr Trainer, fold int) int64 {
	h := fnv.New64a()
	if k, ok := tr.(interface{ TuningKey() string }); ok {
		fmt.Fprintf(h, "%s|%d", k.TuningKey(), fold)
	} else {
		fmt.Fprintf(h, "%T%+v|%d", tr, tr, fold)
	}
	return base ^ int64(h.Sum64())
}

// Train implements Trainer: it picks the grid entry with the best CV
// accuracy and refits it on the full data.
//
// Every fold × grid candidate trains from its own seeded RNG, derived
// up front from the caller's stream. A single shared RNG would make
// each candidate's result depend on how many random draws the
// previously evaluated candidates consumed — so reordering the grid,
// skipping an entry, or evaluating candidates concurrently would all
// change the tuning outcome. With per-candidate derivation the
// evaluation is order-independent (and safe to parallelize).
func (t *Tuned) Train(d *dataset.Dataset, rng *rand.Rand) (Model, error) {
	if len(t.Grid) == 0 {
		return nil, fmt.Errorf("metamodel: empty tuning grid for %s", t.Family)
	}
	if len(t.Grid) == 1 {
		return t.Grid[0].Train(d, rng)
	}
	folds := t.Folds
	if folds == 0 {
		folds = 3
	}
	kf, err := dataset.KFold(d, folds, rng)
	if err != nil {
		// Too little data to cross-validate: fall back to the first entry.
		return t.Grid[0].Train(d, rng)
	}
	tuneSeed := rng.Int63()
	refitSeed := rng.Int63()

	// Each cell trains one fold × grid candidate and scores it on the
	// fold's holdout. Trainers on the shared-fold path fit through a row
	// mask against the parent dataset, so its cached views (columns,
	// sorted orders, bin edges and codes) are computed once and shared
	// by every cell instead of rebuilt per fold. Cells are independent
	// (per-cell seeded RNGs) and the reduction below runs in fixed grid
	// order, so scheduling cannot change the outcome, only the wall
	// clock.
	accs := make([]float64, len(t.Grid)*len(kf)) // accs[gi*len(kf)+fi]
	errs := make([]error, len(accs))
	par.For(len(accs), func(_, c int) {
		tr, fi := t.Grid[c/len(kf)], c%len(kf)
		child := rand.New(rand.NewSource(candidateSeed(tuneSeed, tr, fi)))
		var m Model
		var err error
		if st, ok := tr.(SubsetTrainer); ok {
			m, err = st.TrainSubset(d, kf[fi].TrainIdx, child)
		} else {
			m, err = tr.Train(kf[fi].Train, child)
		}
		if err != nil {
			errs[c] = fmt.Errorf("metamodel: tuning %s: %w", t.Family, err)
			return
		}
		accs[c] = Accuracy(m, kf[fi].Test)
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	best, bestAcc := 0, -1.0
	for gi := range t.Grid {
		acc := 0.0
		for fi := range kf {
			acc += accs[gi*len(kf)+fi]
		}
		acc /= float64(len(kf))
		if acc > bestAcc {
			bestAcc, best = acc, gi
		}
	}
	return t.Grid[best].Train(d, rand.New(rand.NewSource(refitSeed)))
}
