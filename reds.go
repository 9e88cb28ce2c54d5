// Package reds is the public API of the REDS scenario-discovery library,
// a from-scratch Go implementation of "REDS: Rule Extraction for
// Discovering Scenarios" (Arzamasov & Böhm, SIGMOD 2021).
//
// Scenario discovery finds hyperbox descriptions ("IF a1 in [l1,r1] AND
// ... THEN interesting") of the input region where a simulation model
// shows behavior of interest. The conventional pipeline labels N
// simulated points and mines them directly with PRIM or BestInterval;
// REDS first fits a metamodel (random forest, gradient boosting or SVM)
// to the N points, pseudo-labels a much larger sample, and mines that —
// cutting the number of simulations needed for a given scenario quality
// by 50-75%.
//
// The minimal pipeline:
//
//	train := reds.Generate(model, 400, reds.LatinHypercube{}, rng) // N simulations
//	r := &reds.REDS{
//	        Metamodel: reds.TunedRandomForest(model.Dim()),
//	        L:         50000,
//	        SD:        &reds.PRIM{},
//	}
//	result, err := r.Discover(train, train, rng)
//	fmt.Println(result.Final()) // the scenario as a rule
package reds

import (
	"math/rand"

	"github.com/reds-go/reds/internal/bi"
	"github.com/reds-go/reds/internal/box"
	"github.com/reds-go/reds/internal/core"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/dsgc"
	"github.com/reds-go/reds/internal/engine"
	"github.com/reds-go/reds/internal/engine/store"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/gbt"
	"github.com/reds-go/reds/internal/lake"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/metrics"
	"github.com/reds-go/reds/internal/pca"
	"github.com/reds-go/reds/internal/prim"
	"github.com/reds-go/reds/internal/rf"
	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/sd"
	"github.com/reds-go/reds/internal/svm"
	"github.com/reds-go/reds/internal/tgl"
)

// --- Data ---

// Dataset is the tabular container shared by all algorithms: an N×M
// input matrix X plus a label column Y (binary or probabilistic).
type Dataset = dataset.Dataset

// NewDataset validates and wraps an input matrix and label vector.
var NewDataset = dataset.New

// ReadCSV parses a dataset whose last column is the label.
var ReadCSV = dataset.ReadCSV

// Box is an axis-aligned hyperbox: the scenario representation. Its
// String method renders the IF-THEN rule.
type Box = box.Box

// FullBox returns the unrestricted box over dim inputs.
var FullBox = box.Full

// --- Samplers (experiment designs) ---

// Sampler produces points in the unit cube [0,1]^M.
type Sampler = sample.Sampler

// Uniform samples i.i.d. uniform points.
type Uniform = sample.Uniform

// LatinHypercube is the space-filling design the paper uses for its
// training sets.
type LatinHypercube = sample.LatinHypercube

// Halton is the quasi-random sequence used for the "dsgc" model.
type Halton = sample.Halton

// LogitNormal is the non-uniform design of the semi-supervised
// experiments.
type LogitNormal = sample.LogitNormal

// Mixed replaces every even input with draws from {0.1,0.3,0.5,0.7,0.9}.
type Mixed = sample.Mixed

// --- Simulation models ---

// Function is a simulation model (or stand-in) on the unit cube.
type Function = funcs.Function

// GetFunction returns a Table 1 test function by name (e.g. "morris",
// "borehole", "f3").
var GetFunction = funcs.Get

// FunctionNames lists all registered test functions.
var FunctionNames = funcs.Names

// Generate runs n simulations of f at points drawn by s: steps (1)-(2)
// of the conventional scenario-discovery process.
var Generate = funcs.Generate

// DSGC returns the decentral-smart-grid-control stability model
// (12 inputs; y = 1 marks unstable grids).
func DSGC() Function { return dsgc.New() }

// LakeDataset generates the n-example lake-problem dataset (5 inputs).
var LakeDataset = lake.Dataset

// TGLDataset generates the 882-example synthetic TGL dataset (9 inputs).
var TGLDataset = tgl.Dataset

// --- Metamodels ---

// Metamodel is a trained intermediate model f_am.
type Metamodel = metamodel.Model

// MetamodelTrainer fits a Metamodel to a dataset.
type MetamodelTrainer = metamodel.Trainer

// RandomForest configures a random-forest metamodel ("f").
type RandomForest = rf.Trainer

// GradientBoosting configures an XGBoost-style metamodel ("x").
type GradientBoosting = gbt.Trainer

// SVM configures an RBF support-vector machine metamodel ("s").
type SVM = svm.Trainer

// RandomForestBinned configures a random forest on the histogram-binned
// training fast path: quantile-binned features, per-node bin histograms
// with sibling subtraction instead of sorted-order partitions. Trees are
// near-equivalent but not byte-identical to RandomForest's.
type RandomForestBinned = rf.BinnedTrainer

// GradientBoostingBinned configures boosting on the histogram-binned
// training fast path.
type GradientBoostingBinned = gbt.BinnedTrainer

// TunedRandomForest returns a cross-validated random-forest trainer for
// m-dimensional inputs.
var TunedRandomForest = rf.TunedTrainer

// TunedRandomForestBinned is TunedRandomForest on the histogram-binned
// fast path: one shared quantization serves all fold × grid cells.
var TunedRandomForestBinned = rf.TunedTrainerBinned

// TunedGradientBoosting returns a cross-validated boosting trainer.
var TunedGradientBoosting = gbt.TunedTrainer

// TunedGradientBoostingBinned is TunedGradientBoosting on the
// histogram-binned fast path.
var TunedGradientBoostingBinned = gbt.TunedTrainerBinned

// TunedSVM returns a cross-validated SVM trainer.
var TunedSVM = svm.TunedTrainer

// BatchOptions configure PredictBatchParallel (progress, batch kernel).
type BatchOptions = metamodel.BatchOptions

// PredictBatchSerial evaluates a prediction function on every point on
// the calling goroutine — the baseline for the parallel path.
var PredictBatchSerial = metamodel.PredictBatchSerial

// PredictBatchParallel shards prediction across the process's compute
// budget with cooperative cancellation; the hot path of pseudo-labeling.
var PredictBatchParallel = metamodel.PredictBatchParallel

// BatchMetamodel is the vectorized fast path a metamodel may offer:
// whole slices of points evaluated over flattened model state,
// byte-identical to the per-point methods. The shipped rf, gbt and svm
// models all implement it.
type BatchMetamodel = metamodel.BatchModel

// PredictProbBatch evaluates P(y=1|x) for every point in parallel,
// through the model's batch fast path when it has one.
var PredictProbBatch = metamodel.PredictProbBatchCtx

// PredictLabelBatch evaluates the hard 0/1 label for every point in
// parallel, through the model's batch fast path when it has one.
var PredictLabelBatch = metamodel.PredictLabelBatchCtx

// PseudoLabel runs the sample and label stages of Algorithm 4 (lines
// 3-6) standalone: draw l points and label them with a trained
// metamodel. This is the cacheable unit the engine shares across a
// job's variants.
var PseudoLabel = core.PseudoLabel

// --- Subgroup discovery ---

// Discoverer is a subgroup-discovery algorithm: PRIM, PRIMBumping, BI or
// REDS itself.
type Discoverer = sd.Discoverer

// Result is one discovery run: the trajectory of nested candidate boxes
// and the selected final box.
type Result = sd.Result

// Step is one trajectory entry with its subgroup statistics.
type Step = sd.Step

// SubgroupStats are the (n, n+) statistics of a box on a dataset.
type SubgroupStats = sd.Stats

// PRIM is the Patient Rule Induction Method (peeling, Algorithm 1).
type PRIM = prim.Peeler

// PRIMBumping is PRIM with bumping (Algorithm 2).
type PRIMBumping = prim.Bumping

// BI is the BestInterval beam search (Algorithm 3).
type BI = bi.BI

// REDS is the paper's contribution (Algorithm 4): metamodel →
// pseudo-label L fresh points → subgroup discovery.
type REDS = core.REDS

// ActiveREDS is the active-learning extension of Section 10: the
// simulation budget is spent adaptively, querying points where the
// metamodel is most uncertain.
type ActiveREDS = core.ActiveREDS

// PeelObjective selects PRIM's peel target function.
type PeelObjective = prim.Objective

// Peel objectives: the original mean criterion and a support-weighted
// variant.
const (
	PeelMean = prim.ObjectiveMean
	PeelLift = prim.ObjectiveLift
)

// PCARotation is a fitted principal-component change of basis for
// PCA-PRIM preprocessing.
type PCARotation = pca.Rotation

// PCAResult is a discovery result in rotated coordinates.
type PCAResult = pca.Result

// FitPCA fits a rotation to a point set.
var FitPCA = pca.Fit

// DiscoverRotated runs PCA-PRIM: rotate along the principal components
// of the interesting examples, then discover there.
var DiscoverRotated = pca.Discover

// Cover applies the covering approach: repeated discovery on the
// examples not covered by earlier scenarios.
var Cover = sd.Cover

// --- Quality metrics (Section 4) ---

// PrecisionRecall evaluates a box on a dataset.
var PrecisionRecall = metrics.PrecisionRecall

// WRAcc is the weighted relative accuracy of a box on a dataset.
var WRAcc = metrics.WRAcc

// PRPoint is one point of a precision-recall curve.
type PRPoint = metrics.PRPoint

// TrajectoryCurve maps a result's boxes to PR points on a dataset.
var TrajectoryCurve = metrics.Trajectory

// PRAUC is the area under a peeling trajectory.
var PRAUC = metrics.PRAUC

// Domain describes the input space for consistency computations.
type Domain = metrics.Domain

// UnitDomain is the all-continuous [0,1]^m domain.
var UnitDomain = metrics.UnitDomain

// Consistency is the mean pairwise overlap/union volume ratio of
// repeatedly discovered boxes (Definition 2).
var Consistency = metrics.Consistency

// Irrelevant counts restricted inputs that the ground truth marks
// irrelevant (#irrel).
var Irrelevant = metrics.Irrelevant

// --- Concurrent engine (cmd/redsserver) ---

// Engine is the concurrent scenario-discovery engine: a bounded worker
// pool running whole REDS pipelines as cancellable jobs with per-stage
// progress, an LRU metamodel cache, and multi-variant fan-out ranked by
// scenario quality.
type Engine = engine.Engine

// EngineOptions configure worker count, queue bound, the execution
// layer (Executor, or cache budget/TTL for the default in-process one)
// and the durable job store (Store/TTL/SweepInterval).
type EngineOptions = engine.Options

// NewEngine starts an engine and its worker pool, recovering any jobs a
// previous process left in the configured store; Close releases it
// (including the store).
var NewEngine = engine.New

// JobStore is the persistence interface behind EngineOptions.Store.
type JobStore = store.Store

// NewMemJobStore returns the in-process store (the default): engine
// state dies with the process.
var NewMemJobStore = store.NewMem

// OpenFSJobStore opens (creating or recovering) a durable append-only
// job store in a directory; jobs and results survive restarts.
var OpenFSJobStore = store.OpenFS

// FSJobStoreOptions tune the file store (compaction threshold, fsync).
type FSJobStoreOptions = store.FSOptions

// JobRequest describes one discovery job (data source, L, variant grid).
type JobRequest = engine.Request

// JobID identifies a submitted job.
type JobID = engine.JobID

// JobStatus is the lifecycle state of a job.
type JobStatus = engine.Status

// Job lifecycle states.
const (
	JobPending  = engine.StatusPending
	JobRunning  = engine.StatusRunning
	JobDone     = engine.StatusDone
	JobFailed   = engine.StatusFailed
	JobCanceled = engine.StatusCanceled
)

// JobSnapshot is a point-in-time view of a job's status and progress.
type JobSnapshot = engine.Snapshot

// JobResult is the final payload of a done job: the winning variant and
// the full ranked variant list.
type JobResult = engine.Result

// JobVariantResult is the outcome of one metamodel × SD combination.
type JobVariantResult = engine.VariantResult

// NewAPIHandler returns the /v1 HTTP JSON API over an engine — the
// handler cmd/redsserver serves.
var NewAPIHandler = engine.NewHandler

// --- Execution layer (orchestration/execution split, cmd/redsgateway) ---

// JobExecutor is the execution layer behind the engine: it runs one
// request end to end. The engine (orchestration) stays identical
// whether jobs execute in-process, on a remote worker, or across a
// consistent-hash cluster (internal/cluster.Dispatcher in
// cmd/redsgateway).
type JobExecutor = engine.Executor

// JobProgress is an executor's point-in-time progress report.
type JobProgress = engine.Progress

// LocalExecutor runs requests in-process with a size-weighted LRU
// metamodel cache — the executor cmd/redsserver uses.
type LocalExecutor = engine.LocalExecutor

// NewLocalExecutor builds the in-process execution layer.
var NewLocalExecutor = engine.NewLocalExecutor

// LocalExecutorOptions bound the metamodel cache by approximate model
// bytes and an optional TTL.
type LocalExecutorOptions = engine.LocalExecutorOptions

// RemoteExecutor runs requests on a redsserver worker through the
// internal execution API (progress polling, cancellation, failover
// classification via ErrWorkerUnavailable).
type RemoteExecutor = engine.RemoteExecutor

// ErrWorkerUnavailable marks execution failures caused by an
// unreachable worker — safe to re-route — as opposed to failures of the
// request itself.
var ErrWorkerUnavailable = engine.ErrUnavailable

// --- Convenience ---

// DiscoverScenario runs the full REDS pipeline with recommended
// defaults (tuned gradient boosting, L = 50000, PRIM) on a labeled
// dataset and returns the result.
func DiscoverScenario(train *Dataset, rng *rand.Rand) (*Result, error) {
	r := &REDS{
		Metamodel: TunedGradientBoosting(),
		L:         50000,
		SD:        &PRIM{},
	}
	return r.Discover(train, train, rng)
}
