package reds_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section 9). Each benchmark executes the same
// driver as `redsbench -exp <id>` at a small fixed configuration, so
// `go test -bench=.` regenerates every experimental artifact's code path
// quickly; `cmd/redsbench -paper` scales the identical code to the
// paper's full setup. Component micro-benchmarks for the substrates
// follow below.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	reds "github.com/reds-go/reds"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/experiment"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/ruleset"
)

// skipIfShort exempts the heavy paper-figure suites from -short runs
// (notably the CI benchmark smoke step, which only exercises the
// component hot paths).
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping paper-figure suite in -short mode")
	}
}

// benchConfig keeps every driver in the sub-minute range.
func benchConfig() experiment.Config {
	return experiment.Config{
		Funcs: []string{"f2", "hart3", "morris"},
		Reps:  3,
		Ns:    []int{200, 400},
		TestN: 2000,
		LPrim: 4000,
		LBI:   2000,
		Seed:  1,
	}
}

func BenchmarkFig6Demonstration(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkTable3PRIMMethods(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	cfg.Funcs = []string{"f2", "hart3"}
	for i := 0; i < b.N; i++ {
		r, err := experiment.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkFig7RelativeChange(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	cfg.Funcs = []string{"f2", "hart3"}
	for i := 0; i < b.N; i++ {
		r, err := experiment.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.RenderFig7(io.Discard)
	}
}

func BenchmarkTable4BIMethods(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	cfg.Funcs = []string{"f2", "hart3"}
	for i := 0; i < b.N; i++ {
		r, err := experiment.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkFig8RelativeChange(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	cfg.Funcs = []string{"f2", "hart3"}
	for i := 0; i < b.N; i++ {
		r, err := experiment.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.RenderFig8(io.Discard)
	}
}

func BenchmarkFig9Runtimes(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	cfg.Funcs = []string{"f2"}
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkFig10MixedInputs(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	cfg.Funcs = []string{"f2", "hart3"}
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkFig11Trajectories(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkFig12LearningCurves(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	cfg.Reps = 2
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkFig13Table5ThirdParty(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	cfg.Reps = 2
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

func BenchmarkFig14SemiSupervised(b *testing.B) {
	skipIfShort(b)
	cfg := benchConfig()
	cfg.Funcs = []string{"f2", "hart3"}
	for i := 0; i < b.N; i++ {
		r, err := experiment.Fig14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// --- Component micro-benchmarks ---

// benchTrain draws n points with m uniform [0,1) inputs and the
// benchmark suite's standard label: y = 1 iff x0 < 0.5 and x1 > 0.3 (a
// two-feature interaction box covering ~35% of the space).
func benchTrain(n, m int, seed int64) *reds.Dataset {
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

// BenchmarkPRIMPeel reuses one dataset, whose sorted orders are cached
// after the first iteration, so it times the peel without the presort
// (BenchmarkSortedOrders times that).
func BenchmarkPRIMPeel(b *testing.B) {
	d := benchTrain(10000, 20, 1)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&reds.PRIM{}).Discover(d, d, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPRIMPeelREDS times the peel at the shapes the engine hands
// PRIM: L pseudo-labeled training points and, as the validation set,
// the far fewer simulated ones. L=20000,M=20 with 300 validation rows
// is warm_gateway's morris job, and L=100000,M=8 with 400 is
// paper_prim's borehole job. As in BenchmarkPRIMPeel, the training
// set's sorted orders are cached after the first iteration.
func BenchmarkPRIMPeelREDS(b *testing.B) {
	for _, s := range []struct{ l, m, val int }{{20000, 20, 300}, {100000, 8, 400}} {
		b.Run(fmt.Sprintf("L=%d,M=%d", s.l, s.m), func(b *testing.B) {
			train, val := benchTrain(s.l, s.m, 1), benchTrain(s.val, s.m, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (&reds.PRIM{}).Discover(train, val, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSortedOrders times the presort every consumer of a fresh
// dataset pays on first use, at paper_prim's shape: L=10^5 pseudo-labeled
// points of borehole's 8 inputs. Each iteration wraps the same matrix in
// a new Dataset, so the cached orders never serve it.
func BenchmarkSortedOrders(b *testing.B) {
	d := benchTrain(100000, 8, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataset.MustNew(d.X, d.Y).SortedOrders()
	}
}

// BenchmarkSampleSorted100k is BenchmarkSortedOrders on the path a
// Latin hypercube label set takes: a 10^5×8 design's sorted orders
// built from the orders the design knows, which dataset.NewPresorted
// checks column by column and adopts. Each iteration wraps the same
// design in a new Dataset, so it times the column view plus the checks.
func BenchmarkSampleSorted100k(b *testing.B) {
	pts, ords := reds.LatinHypercube{}.SampleOrdered(100000, 8, rand.New(rand.NewSource(17)))
	y := make([]float64, len(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.NewPresorted(pts, y, ords); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStablePartition times the kernel that keeps exact rf and gbt
// node orders sorted through every split, on tuned_train's N: a
// 1,600-row segment in random row order with a balanced random side per
// row, the split a branch on the side mispredicts half the time. The
// iterations cycle through 16 such side vectors, as successive splits
// do, because a branch predictor learns one vector replayed every
// iteration. Each iteration restores the segment first, so the copy is
// in the time.
func BenchmarkStablePartition(b *testing.B) {
	const n, sides = 1600, 16
	rng := rand.New(rand.NewSource(11))
	seg := rng.Perm(n)
	goLeft := make([][]bool, sides)
	for k := range goLeft {
		goLeft[k] = make([]bool, n)
		for r := range goLeft[k] {
			goLeft[k][r] = rng.Intn(2) == 0
		}
	}
	work, scratch := make([]int, n), make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, seg)
		dataset.StablePartition(work, goLeft[i%sides], scratch)
	}
}

func BenchmarkBumping(b *testing.B) {
	d := benchTrain(4000, 10, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&reds.PRIMBumping{Q: 10}).Discover(d, d, rand.New(rand.NewSource(4))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBIBeamSearch(b *testing.B) {
	d := benchTrain(4000, 10, 3)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&reds.BI{}).Discover(d, d, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomForestTrain(b *testing.B) {
	d := benchTrain(400, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(6))
		if _, err := (&reds.RandomForest{NTrees: 100}).Train(d, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGradientBoostingTrain(b *testing.B) {
	d := benchTrain(400, 10, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(8))
		if _, err := (&reds.GradientBoosting{}).Train(d, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomForestTrainBinned measures the histogram-binned fast
// path on the exact-path workload above.
func BenchmarkRandomForestTrainBinned(b *testing.B) {
	d := benchTrain(400, 10, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(6))
		if _, err := (&reds.RandomForestBinned{Trainer: reds.RandomForest{NTrees: 100}}).Train(d, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGradientBoostingTrainBinned measures the histogram-binned
// fast path on the exact-path workload above.
func BenchmarkGradientBoostingTrainBinned(b *testing.B) {
	d := benchTrain(400, 10, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(8))
		if _, err := (&reds.GradientBoostingBinned{}).Train(d, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tuned (fold × grid) training at paper scale ---

// tunedRFPaper is the caret-style mtry grid ({sqrt(M), M/3, 2M/3} → {3, 6}
// for M=10) at the paper's ntree=500, exact or histogram-binned. This is
// the fold × grid workload the binned fast path targets: 3 folds × 2
// candidates plus the final refit, 3500 trees per op.
func tunedRFPaper(binned bool) reds.MetamodelTrainer {
	var grid []reds.MetamodelTrainer
	for _, mtry := range []int{3, 6} {
		if binned {
			grid = append(grid, &reds.RandomForestBinned{Trainer: reds.RandomForest{NTrees: 500, MTry: mtry}})
		} else {
			grid = append(grid, &reds.RandomForest{NTrees: 500, MTry: mtry})
		}
	}
	return &metamodel.Tuned{Family: "rf", Grid: grid}
}

func BenchmarkTunedTrainRF(b *testing.B) {
	d := benchTrain(400, 10, 5)
	tr := tunedRFPaper(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Train(d, rand.New(rand.NewSource(6))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTunedTrainRFBinned(b *testing.B) {
	d := benchTrain(400, 10, 5)
	tr := tunedRFPaper(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Train(d, rand.New(rand.NewSource(6))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTunedTrainGBT(b *testing.B) {
	d := benchTrain(400, 10, 7)
	tr := reds.TunedGradientBoosting()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Train(d, rand.New(rand.NewSource(8))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTunedTrainGBTBinned(b *testing.B) {
	d := benchTrain(400, 10, 7)
	tr := reds.TunedGradientBoostingBinned(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Train(d, rand.New(rand.NewSource(8))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVMTrain(b *testing.B) {
	d := benchTrain(400, 10, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(10))
		if _, err := (&reds.SVM{}).Train(d, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkREDSPipeline(b *testing.B) {
	d := benchTrain(400, 10, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(12))
		r := &reds.REDS{
			Metamodel: &reds.GradientBoosting{Rounds: 50},
			L:         10000,
			SD:        &reds.PRIM{},
		}
		if _, err := r.Discover(d, d, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDSGCSimulation(b *testing.B) {
	grid := reds.DSGC()
	rng := rand.New(rand.NewSource(13))
	x := make([]float64, grid.Dim())
	for j := range x {
		x[j] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.Eval(x)
	}
}

// --- Pseudo-labeling (the redsserver hot path) ---

// benchForest50k trains a default random forest and draws the 50k-point
// pseudo-label workload the engine shards across workers.
func benchForest50k(b *testing.B) (reds.Metamodel, [][]float64) {
	b.Helper()
	d := benchTrain(400, 10, 14)
	rng := rand.New(rand.NewSource(15))
	model, err := (&reds.RandomForest{}).Train(d, rng)
	if err != nil {
		b.Fatal(err)
	}
	pts := reds.LatinHypercube{}.Sample(50000, 10, rng)
	return model, pts
}

// BenchmarkPredictBatch50k times the path labeling takes: the forest's
// batch kernel over 512-point chunks on the process's compute budget.
// Run it with -cpu 1,2,4 to see it scale.
func BenchmarkPredictBatch50k(b *testing.B) {
	model, pts := benchForest50k(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reds.PredictProbBatch(context.Background(), model, pts, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Pseudo-label stage at the paper's L=10^5 ---

// benchPaperForest trains the paper-scale random forest (ntree=500,
// the R randomForest default behind the paper's caret setup; the
// repo's Trainer default is 100 for speed) on the usual 400×10
// training workload.
func benchPaperForest(b *testing.B) reds.Metamodel {
	b.Helper()
	d := benchTrain(400, 10, 14)
	model, err := (&reds.RandomForest{NTrees: 500}).Train(d, rand.New(rand.NewSource(15)))
	if err != nil {
		b.Fatal(err)
	}
	return model
}

// BenchmarkLabelStage100k measures the optimized pseudo-label stage at
// the paper's L=10^5: flat-allocation Latin hypercube sampling plus
// the forest's batch kernel over its compiled node table.
func BenchmarkLabelStage100k(b *testing.B) {
	benchLabelStage(b, benchPaperForest(b), false)
}

// BenchmarkLabelStage100kProb is BenchmarkLabelStage100k with
// probability labels: every tree is summed for every point, so the gap
// between the two is what the hard-label early exit saves.
func BenchmarkLabelStage100kProb(b *testing.B) {
	benchLabelStage(b, benchPaperForest(b), true)
}

// BenchmarkLabelStage100kGBT runs the hard-label stage on a default
// boosted ensemble (100 rounds, depth 4), whose labels threshold a
// margin rather than a mean vote.
func BenchmarkLabelStage100kGBT(b *testing.B) {
	d := benchTrain(400, 10, 14)
	model, err := (&reds.GradientBoosting{}).Train(d, rand.New(rand.NewSource(15)))
	if err != nil {
		b.Fatal(err)
	}
	benchLabelStage(b, model, false)
}

// benchLabelStage pseudo-labels 10^5 Latin hypercube points with model
// once per op.
func benchLabelStage(b *testing.B, model reds.Metamodel, probLabels bool) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reds.PseudoLabel(context.Background(), model, reds.LatinHypercube{}, 100000, 10, 16, probLabels, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Rule-set distillation: build cost and the labeling speedup ---

// BenchmarkDistill500 measures distilling the paper-scale forest into a
// compact probabilistic rule set: agreement-ranked tree selection,
// box merging, recompilation and the holdout fidelity check.
func BenchmarkDistill500(b *testing.B) {
	model := benchPaperForest(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ruleset.Distill(model, ruleset.Options{Dim: 10, Seed: 18}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabelStage100kDistilled runs the same pseudo-label stage as
// BenchmarkLabelStage100k but on the distilled kernel; the gap between
// the two is the speedup the distilled kernel buys at the paper's
// L=10^5.
func BenchmarkLabelStage100kDistilled(b *testing.B) {
	model := benchPaperForest(b)
	distilled, err := ruleset.Distill(model, ruleset.Options{Dim: 10, Seed: 18})
	if err != nil {
		b.Fatal(err)
	}
	benchLabelStage(b, distilled, false)
}
