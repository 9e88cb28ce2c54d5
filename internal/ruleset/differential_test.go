package ruleset

import (
	"math"
	"math/rand"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/flattree"
	"github.com/reds-go/reds/internal/gbt"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/rf"
	"github.com/reds-go/reds/internal/sample"
)

// crispData mirrors the repo-wide benchmark generator: a crisp
// axis-aligned concept tree ensembles learn almost perfectly.
func crispData(n, m int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			row[j] = rng.Float64()
		}
		x[i] = row
		if row[0] < 0.5 && row[1] > 0.3 {
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

// noisyData flips a quarter of the crisp labels, so individual trees
// overfit noise and disagree with the ensemble vote — the fixture that
// makes a forced single-tree rule set measurably low-fidelity.
func noisyData(n, m int, seed int64) *dataset.Dataset {
	d := crispData(n, m, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	y := append([]float64(nil), d.Y...)
	for i := range y {
		if rng.Float64() < 0.25 {
			y[i] = 1 - y[i]
		}
	}
	return dataset.MustNew(d.X, y)
}

// tiedTrainData mirrors the adversarial generator of the PR 5 batch
// tests: even columns quantized to a handful of levels so cross-row
// ties and exact-split-value queries are guaranteed.
func tiedTrainData(n, m int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	levels := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, m)
		for j := range row {
			if j%2 == 0 {
				row[j] = levels[rng.Intn(len(levels))]
			} else {
				row[j] = rng.Float64()
			}
		}
		x[i] = row
		if row[0] <= 0.5 && row[1] > 0.3 {
			y[i] = 1
		}
	}
	return dataset.MustNew(x, y)
}

// adversarialPoints mirrors PR 5's batch query generator: uniform
// points, exact copies of training rows (hitting split values),
// points with a ±Inf or NaN coordinate, and duplicates of the
// previous point.
func adversarialPoints(d *dataset.Dataset, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	m := d.M()
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, m)
		switch i % 4 {
		case 0:
			for j := range row {
				row[j] = rng.Float64()
			}
		case 1:
			copy(row, d.X[rng.Intn(d.N())])
		case 2:
			for j := range row {
				row[j] = rng.Float64()
			}
			switch rng.Intn(3) {
			case 0:
				row[rng.Intn(m)] = math.Inf(1)
			case 1:
				row[rng.Intn(m)] = math.Inf(-1)
			default:
				row[rng.Intn(m)] = math.NaN()
			}
		default:
			copy(row, pts[i-1])
		}
		pts[i] = row
	}
	return pts
}

func trainRF(t *testing.T, d *dataset.Dataset, ntrees int, seed int64) metamodel.Model {
	t.Helper()
	m, err := (&rf.Trainer{NTrees: ntrees}).Train(d, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("rf train: %v", err)
	}
	return m
}

func trainGBT(t *testing.T, d *dataset.Dataset, seed int64) metamodel.Model {
	t.Helper()
	m, err := (&gbt.Trainer{}).Train(d, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("gbt train: %v", err)
	}
	return m
}

// measureFidelity compares distilled vs parent hard labels on a fresh
// seeded LHS grid of l points.
func measureFidelity(t *testing.T, dist *Model, parent metamodel.Model, dim, l int, seed int64) float64 {
	t.Helper()
	pts := sample.LatinHypercube{}.Sample(l, dim, rand.New(rand.NewSource(seed)))
	got := make([]float64, l)
	dist.PredictLabelBatchInto(got, pts)
	want := metamodel.PredictLabelBatch(parent, pts)
	agree := 0
	for i := range got {
		if got[i] == want[i] {
			agree++
		}
	}
	return float64(agree) / float64(l)
}

// TestDifferentialAgainstParent is the core differential suite of the
// PR: the distilled kernel must agree with the parent ensemble at or
// above the configured threshold across seeded LHS grids of several
// sizes, for both distillable families.
func TestDifferentialAgainstParent(t *testing.T) {
	const threshold = 0.99
	train := crispData(400, 10, 14)
	parents := map[string]metamodel.Model{
		"rf":  trainRF(t, train, 200, 15),
		"gbt": trainGBT(t, train, 15),
	}
	for name, parent := range parents {
		t.Run(name, func(t *testing.T) {
			dist, err := Distill(parent, Options{Dim: 10, TargetFidelity: 0.995, Seed: 99})
			if err != nil {
				t.Fatalf("distill: %v", err)
			}
			st := dist.Stats()
			if st.SelectedTrees >= st.ParentTrees {
				t.Errorf("no compression: selected %d of %d trees", st.SelectedTrees, st.ParentTrees)
			}
			if st.LabelFidelity < threshold {
				t.Fatalf("holdout fidelity %.4f below %.2f", st.LabelFidelity, threshold)
			}
			for _, l := range []int{1000, 10000, 50000} {
				if fid := measureFidelity(t, dist, parent, 10, l, int64(l)); fid < threshold {
					t.Errorf("L=%d: fidelity %.4f below %.2f", l, fid, threshold)
				}
			}
		})
	}
}

// TestDistilledBatchMatchesPerPoint holds the distilled model's batch
// kernels to a per-point flattree.Descend walk over its decoded trees
// on adversarial inputs (±Inf, NaN, exact split values, duplicate
// rows) — the same oracle rf/gbt hold their own flat kernels to. The
// early-exit labels must equal the full sum thresholded at the parent
// family's boundary.
func TestDistilledBatchMatchesPerPoint(t *testing.T) {
	train := tiedTrainData(300, 6, 21)
	for name, parent := range map[string]metamodel.Model{
		"rf":  trainRF(t, train, 100, 22),
		"gbt": trainGBT(t, train, 22),
	} {
		t.Run(name, func(t *testing.T) {
			dist, err := Distill(parent, Options{Dim: 6, Seed: 23})
			if err != nil {
				t.Fatalf("distill: %v", err)
			}
			pts := adversarialPoints(train, 1000, 24)
			probs := make([]float64, len(pts))
			labels := make([]float64, len(pts))
			dist.PredictProbBatchInto(probs, pts)
			dist.PredictLabelBatchInto(labels, pts)
			trees := dist.table.Decode()
			for i, x := range pts {
				sum := dist.init
				for _, tree := range trees {
					sum += dist.scale * tree[flattree.Descend(tree, x)].Value
				}
				prob := sum / float64(dist.trees)
				above := prob > 0.5
				if dist.margin {
					prob, above = sigmoid(sum), sum > 0
				}
				if math.Float64bits(prob) != math.Float64bits(probs[i]) {
					t.Fatalf("point %d: batch prob %v != per-point %v", i, probs[i], prob)
				}
				want := 0.0
				if above {
					want = 1
				}
				if labels[i] != want {
					t.Fatalf("point %d: label %v, full sum %v gives %v", i, labels[i], sum, want)
				}
			}
		})
	}
}

// TestExportEvaluatesLikeTable differentially tests the two readings
// of the same artifact: the recompiled table (the labeling kernel) and
// the exported rules evaluated by box matching (the JSON document).
// Labels must agree everywhere — including NaN/±Inf coordinates, whose
// matching semantics are defined to mirror the descent — and scores
// must agree up to float reassociation noise.
func TestExportEvaluatesLikeTable(t *testing.T) {
	train := tiedTrainData(300, 6, 31)
	for name, parent := range map[string]metamodel.Model{
		"rf":  trainRF(t, train, 100, 32),
		"gbt": trainGBT(t, train, 32),
	} {
		t.Run(name, func(t *testing.T) {
			dist, err := Distill(parent, Options{Dim: 6, Seed: 33, MergeEps: 0.05})
			if err != nil {
				t.Fatalf("distill: %v", err)
			}
			e := dist.Export()
			pts := adversarialPoints(train, 2000, 34)
			probs := make([]float64, len(pts))
			labels := make([]float64, len(pts))
			dist.PredictProbBatchInto(probs, pts)
			dist.PredictLabelBatchInto(labels, pts)
			for i, x := range pts {
				if p := e.ProbAt(x); math.Abs(p-probs[i]) > 1e-9 {
					t.Fatalf("point %d: rule-scan prob %v vs table %v", i, p, probs[i])
				}
				// Labels may legitimately differ only when the score sits
				// within reassociation noise of the decision boundary.
				if l := e.LabelAt(x); l != labels[i] && math.Abs(probs[i]-0.5) > 1e-9 {
					t.Fatalf("point %d: rule-scan label %v vs table %v (prob %v)", i, l, labels[i], probs[i])
				}
			}
		})
	}
}

// TestForcedLowFidelity pins the forcing knob the engine's fallback
// tests rely on: a one-tree rule budget against a noise-overfit forest
// must measure fidelity below any realistic threshold and report it
// honestly.
func TestForcedLowFidelity(t *testing.T) {
	train := noisyData(400, 10, 41)
	parent := trainRF(t, train, 200, 42)
	dist, err := Distill(parent, Options{Dim: 10, TargetFidelity: 1, MaxRules: 1, Seed: 43})
	if err != nil {
		t.Fatalf("distill: %v", err)
	}
	st := dist.Stats()
	if st.SelectedTrees != 1 {
		t.Fatalf("MaxRules=1 kept %d trees, want 1", st.SelectedTrees)
	}
	if st.LabelFidelity >= 0.99 {
		t.Fatalf("forced-low distillation still measured %.4f fidelity; fixture too easy", st.LabelFidelity)
	}
}

// TestNotDistillable pins the sentinel for models without tree
// structure.
func TestNotDistillable(t *testing.T) {
	if _, err := Distill(opaqueModel{}, Options{Dim: 3}); err != ErrNotDistillable {
		t.Fatalf("got %v, want ErrNotDistillable", err)
	}
}

type opaqueModel struct{}

func (opaqueModel) PredictProbBatchInto(dst []float64, _ [][]float64) {
	for i := range dst {
		dst[i] = 0.5
	}
}

func (opaqueModel) PredictLabelBatchInto(dst []float64, _ [][]float64) { clear(dst) }

func (opaqueModel) ApproxMemoryBytes() int64 { return 0 }
