package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/benchdata"
	"github.com/reds-go/reds/internal/bi"
	"github.com/reds-go/reds/internal/core"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/gbt"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/prim"
	"github.com/reds-go/reds/internal/rf"
	"github.com/reds-go/reds/internal/ruleset"
	"github.com/reds-go/reds/internal/sample"
)

// benchResult is the machine-readable record of one component benchmark:
// the figures CI and the perf trajectory track.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the top-level JSON document `redsbench -bench -json`
// emits; snapshots of it (BENCH_PR2.json, ...) record the perf
// trajectory across PRs.
type benchReport struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        int    `json:"num_cpu"`
	Date       string `json:"date"`
	// Note flags non-obvious measurement conditions; set on single-core
	// runs, where the parallel-path benchmarks measure serialized
	// execution and understate their multi-core speedups.
	Note       string        `json:"note,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// benchData is the dataset generator shared with the repo's
// bench_test.go (internal/benchdata), so the binary reports the same
// workloads `go test -bench` measures.
func benchData(n, m int, seed int64) *dataset.Dataset {
	return benchdata.Gen(n, m, seed)
}

// tunedRFPaper mirrors bench_test.go's fold × grid workload: the
// caret-style mtry grid ({3, 6} for M=10) at the paper's ntree=500,
// exact or histogram-binned.
func tunedRFPaper(binned bool) metamodel.Trainer {
	var grid []metamodel.Trainer
	for _, mtry := range []int{3, 6} {
		if binned {
			grid = append(grid, &rf.BinnedTrainer{Trainer: rf.Trainer{NTrees: 500, MTry: mtry}})
		} else {
			grid = append(grid, &rf.Trainer{NTrees: 500, MTry: mtry})
		}
	}
	return &metamodel.Tuned{Family: "rf", Grid: grid}
}

// componentBenchmarks enumerates the hot-path benchmarks: each optimized
// path next to its kept reference implementation, so every report
// carries its own before/after.
func componentBenchmarks() []struct {
	name string
	fn   func(b *testing.B)
} {
	primData := benchData(10000, 20, 1)
	sdTrain := benchData(4000, 10, 3)
	mmTrain := benchData(400, 10, 5)

	rfModel, err := (&rf.Trainer{}).Train(benchData(400, 10, 14), rand.New(rand.NewSource(15)))
	if err != nil {
		panic(err)
	}
	pts := sample.LatinHypercube{}.Sample(50000, 10, rand.New(rand.NewSource(16)))
	// The paper-scale forest (ntree=500, the R randomForest default
	// behind the paper's caret setup) for the pseudo-label stage pair.
	rfPaper, err := (&rf.Trainer{NTrees: 500}).Train(benchData(400, 10, 14), rand.New(rand.NewSource(15)))
	if err != nil {
		panic(err)
	}
	// The distilled labeling kernel for the paper-scale forest, built
	// once so label_distilled measures labeling alone; the distill
	// benchmark below measures the build itself.
	rfDistilled, err := ruleset.Distill(rfPaper, ruleset.Options{Dim: 10, Seed: 18})
	if err != nil {
		panic(err)
	}

	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"prim_peel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&prim.Peeler{}).Discover(primData, primData, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"prim_peel_reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&prim.Peeler{Reference: true}).Discover(primData, primData, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"bumping", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&prim.Bumping{Q: 10}).Discover(sdTrain, sdTrain, rand.New(rand.NewSource(4))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"bumping_serial_reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&prim.Bumping{Q: 10, Workers: 1, Reference: true}).Discover(sdTrain, sdTrain, rand.New(rand.NewSource(4))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"bi_beam", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&bi.BI{}).Discover(sdTrain, sdTrain, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"rf_train", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&rf.Trainer{NTrees: 100}).Train(mmTrain, rand.New(rand.NewSource(6))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"rf_train_reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&rf.Trainer{NTrees: 100, Reference: true}).Train(mmTrain, rand.New(rand.NewSource(6))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"gbt_train", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&gbt.Trainer{}).Train(mmTrain, rand.New(rand.NewSource(8))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"gbt_train_reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&gbt.Trainer{Reference: true}).Train(mmTrain, rand.New(rand.NewSource(8))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The histogram-binned training fast path next to the exact pair
		// above, then the paper-scale tuned (fold × grid) workload it
		// targets — exact vs binned is the headline training speedup
		// (BENCH_PR9.json).
		{"rf_train_binned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&rf.BinnedTrainer{Trainer: rf.Trainer{NTrees: 100}}).Train(mmTrain, rand.New(rand.NewSource(6))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"gbt_train_binned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (&gbt.BinnedTrainer{}).Train(mmTrain, rand.New(rand.NewSource(8))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"train_tuned_rf", func(b *testing.B) {
			tr := tunedRFPaper(false)
			for i := 0; i < b.N; i++ {
				if _, err := tr.Train(mmTrain, rand.New(rand.NewSource(6))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"train_tuned_rf_binned", func(b *testing.B) {
			tr := tunedRFPaper(true)
			for i := 0; i < b.N; i++ {
				if _, err := tr.Train(mmTrain, rand.New(rand.NewSource(6))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"train_tuned_gbt", func(b *testing.B) {
			tr := gbt.TunedTrainer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Train(mmTrain, rand.New(rand.NewSource(8))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"train_tuned_gbt_binned", func(b *testing.B) {
			tr := gbt.TunedTrainerBinned(0)
			for i := 0; i < b.N; i++ {
				if _, err := tr.Train(mmTrain, rand.New(rand.NewSource(8))); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The full pseudo-label stage (Algorithm 4, lines 3-6) at the
		// paper's L=10^5 on the paper-scale rf: the batch component runs
		// flat-allocation LHS + flattened batch inference; the reference
		// runs the pre-PR5 stage (row-allocated sampling, per-point
		// prediction closure). Identical outputs, measured at whatever
		// GOMAXPROCS the host gives (CI and the committed snapshots use 1).
		{"label_batch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PseudoLabel(context.Background(), rfPaper, sample.LatinHypercube{}, 100000, 10, 17, false, metamodel.BatchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"label_batch_reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(17))
				lpts := make([][]float64, 100000)
				for p := range lpts {
					lpts[p] = make([]float64, 10)
				}
				for j := 0; j < 10; j++ {
					perm := rng.Perm(len(lpts))
					for p := range lpts {
						lpts[p][j] = (float64(perm[p]) + rng.Float64()) / float64(len(lpts))
					}
				}
				y, err := metamodel.PredictBatchParallel(context.Background(), lpts, rfPaper.PredictLabel, metamodel.BatchOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dataset.New(lpts, y); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// Rule-set distillation of the paper-scale forest (agreement-
		// ranked tree selection + merge + recompile + holdout fidelity),
		// and the pseudo-label stage run on the resulting compact kernel.
		// label_distilled vs label_batch is the headline speedup the
		// distilled kernel buys at L=10^5.
		{"distill", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ruleset.Distill(rfPaper, ruleset.Options{Dim: 10, Seed: 18}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"label_distilled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PseudoLabel(context.Background(), rfDistilled, sample.LatinHypercube{}, 100000, 10, 17, false, metamodel.BatchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"predict_batch_50k_serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				metamodel.PredictBatchSerial(pts, rfModel.PredictProb)
			}
		}},
		{"predict_batch_50k_parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := metamodel.PredictBatchParallel(b.Context(), pts, rfModel.PredictProb, metamodel.BatchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// runComponentBenchmarks executes the hot-path suite via
// testing.Benchmark, prints a table to w and optionally writes the JSON
// report to jsonPath. With jsonPath "-" the JSON goes to stdout and the
// table moves to stderr, keeping stdout cleanly machine-readable.
func runComponentBenchmarks(w io.Writer, jsonPath string) error {
	if jsonPath == "-" {
		w = os.Stderr
	}
	report := benchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        runtime.NumCPU(),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if report.GOMAXPROCS == 1 {
		report.Note = "single-core run (GOMAXPROCS=1): parallel-path benchmarks measure serialized execution and understate multi-core speedups"
	}
	fmt.Fprintf(w, "%-28s %14s %12s %14s\n", "benchmark", "ns/op", "allocs/op", "B/op")
	for _, bm := range componentBenchmarks() {
		// Settle the heap between benchmarks: garbage from one must not
		// inflate GC pressure (and ns/op) of the next.
		runtime.GC()
		r := testing.Benchmark(bm.fn)
		res := benchResult{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		report.Benchmarks = append(report.Benchmarks, res)
		fmt.Fprintf(w, "%-28s %14.0f %12d %14d\n", res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if jsonPath == "-" {
			_, err = os.Stdout.Write(data)
			return err
		}
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", jsonPath)
	}
	return nil
}
