package experiment

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/metrics"
	"github.com/reds-go/reds/internal/report"
	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/stats"
)

// Fig6Result holds the demonstration experiment of Example 8.1: WRAcc of
// BI and BIc on morris, evaluated both on independent test data and —
// misleadingly — on the training data ("tBI", "tBIc").
type Fig6Result struct {
	Cell *CellResult
}

// Fig6 runs the demonstration on "morris" at N = 400.
func Fig6(cfg Config) (*Fig6Result, error) {
	f, err := Function("morris")
	if err != nil {
		return nil, err
	}
	cell, err := RunCell(Cell{
		Function: f,
		N:        400,
		Reps:     cfg.Reps,
		Methods:  []string{"BI", "BIc"},
		LBI:      cfg.LBI,
		LPrim:    cfg.LPrim,
		Test:     CachedTestSet(f, cfg.TestN, cfg.Seed),
		Seed:     cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Fig6Result{Cell: cell}, nil
}

// Render prints the four quartile boxes of Figure 6. The expected
// pattern: hyperparameter optimization helps (BIc > BI on test), train
// evaluation inflates quality (tBI > BI), and train evaluation flips the
// ranking (tBI > tBIc but BIc > BI).
func (r *Fig6Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: Demonstration — evaluation of BI on \"morris\", N=400")
	fmt.Fprintln(w, "WRAcc x100, median [Q1, Q3]; \"t\" = evaluated on train data")
	rows := []struct {
		label  string
		method string
		metric func(RepOutcome) float64
	}{
		{"BI", "BI", MetricWRAcc},
		{"BIc", "BIc", MetricWRAcc},
		{"tBI", "BI", MetricTrainWRAcc},
		{"tBIc", "BIc", MetricTrainWRAcc},
	}
	for _, row := range rows {
		vals := r.Cell.Values(row.method, row.metric)
		for i := range vals {
			vals[i] *= 100
		}
		q1, med, q3 := stats.Quartiles(vals)
		fmt.Fprintf(w, "  %-5s %s\n", row.label, report.QuartileSummary(q1, med, q3))
	}
}

// Fig9Result holds the runtime curves of Figure 9.
type Fig9Result struct {
	Suite       *Suite
	PrimMethods []string
	BIMethods   []string
}

// Fig9 measures mean wall-clock runtimes of the PRIM- and BI-based
// methods contingent on N.
func Fig9(cfg Config) (*Fig9Result, error) {
	primM := []string{"Pc", "PBc", "RPf", "RPx"}
	biM := []string{"BI", "BIc", "RBIcxp"}
	suite, err := runSuite(cfg, append(append([]string{}, primM...), biM...), cfg.Ns, nil, false, nil)
	if err != nil {
		return nil, err
	}
	return &Fig9Result{Suite: suite, PrimMethods: primM, BIMethods: biM}, nil
}

// Render prints mean runtime (seconds) per method and N.
func (r *Fig9Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: mean runtime (seconds) vs N, averaged across functions")
	all := append(append([]string{}, r.PrimMethods...), r.BIMethods...)
	tbl := &report.Table{Header: append([]string{"N"}, all...)}
	for _, n := range r.Suite.Ns {
		row := make([]interface{}, 0, len(all)+1)
		row = append(row, fmt.Sprintf("%d", n))
		for _, m := range all {
			row = append(row, r.Suite.avgOver(n, func(c *CellResult) float64 { return c.Mean(m, MetricSeconds) }))
		}
		tbl.Add(row...)
	}
	tbl.Render(w)
}

// Fig10Result holds the mixed-inputs comparison of Section 9.1.2.
type Fig10Result struct {
	Suite *Suite
	N     int
}

// Fig10 re-runs the headline methods with the even inputs drawn from the
// discrete levels {0.1, 0.3, 0.5, 0.7, 0.9}. The dsgc model is excluded,
// matching the paper.
func Fig10(cfg Config) (*Fig10Result, error) {
	funcsNoDsgc := make([]string, 0, len(cfg.Funcs))
	for _, f := range cfg.Funcs {
		if f != "dsgc" {
			funcsNoDsgc = append(funcsNoDsgc, f)
		}
	}
	cfg.Funcs = funcsNoDsgc
	n := midN(cfg.Ns)
	smp := sample.Mixed{Base: sample.LatinHypercube{}}
	suite, err := runSuite(cfg, []string{"Pc", "PBc", "RPcxp", "BI", "BIc", "RBIcxp"},
		[]int{n}, smp, true, smp)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Suite: suite, N: n}, nil
}

// Render prints the Figure 10 quartile summaries.
func (r *Fig10Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 10: mixed inputs — quality change in %% relative to \"Pc\"/\"BIc\", N=%d\n", r.N)
	fmt.Fprintln(w, "(median [Q1, Q3] across functions)")
	fmt.Fprintln(w, "\n  PR AUC (vs Pc):")
	for _, m := range []string{"PBc", "RPcxp"} {
		fmt.Fprintf(w, "    %-6s %s\n", m, quartileRow(r.Suite.pctChanges(r.N, m, "Pc", cellMean(MetricPRAUC))))
	}
	fmt.Fprintln(w, "\n  precision (vs Pc):")
	for _, m := range []string{"PBc", "RPcxp"} {
		fmt.Fprintf(w, "    %-6s %s\n", m, quartileRow(r.Suite.pctChanges(r.N, m, "Pc", cellMean(MetricPrecision))))
	}
	fmt.Fprintln(w, "\n  WRAcc (vs BIc):")
	for _, m := range []string{"BI", "RBIcxp"} {
		fmt.Fprintf(w, "    %-6s %s\n", m, quartileRow(r.Suite.pctChanges(r.N, m, "BIc", cellMean(MetricWRAcc))))
	}
}

// Fig11Result holds the peeling trajectories and PR AUC spread on
// "morris" (Section 9.2.1).
type Fig11Result struct {
	Cell    *CellResult
	Methods []string
	// Curves are the mean precision values on a fixed recall grid.
	RecallGrid [][]float64
	Precision  map[string][]float64
}

// Fig11 runs P, Pc and RPx on morris at N = 400 and averages their
// peeling trajectories across repetitions.
func Fig11(cfg Config) (*Fig11Result, error) {
	f, err := Function("morris")
	if err != nil {
		return nil, err
	}
	methodsList := []string{"P", "Pc", "RPx"}
	test := CachedTestSet(f, cfg.TestN, cfg.Seed)
	cell, err := RunCell(Cell{
		Function: f, N: 400, Reps: cfg.Reps, Methods: methodsList,
		LPrim: cfg.LPrim, LBI: cfg.LBI, Test: test, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	// Average trajectories on a recall grid. Trajectory curves are
	// recomputed per repetition by re-running the methods cheaply...
	// instead we use the stored finals only for AUC; trajectories are
	// averaged from fresh runs below.
	res := &Fig11Result{Cell: cell, Methods: methodsList, Precision: map[string][]float64{}}
	grid := make([]float64, 21)
	for i := range grid {
		grid[i] = float64(i) / 20
	}
	curves, err := meanTrajectories(cfg, f, 400, methodsList, test, grid)
	if err != nil {
		return nil, err
	}
	res.Precision = curves
	res.RecallGrid = [][]float64{grid}
	return res, nil
}

// meanTrajectories recomputes each method's trajectory per repetition
// and averages precision at fixed recall knots.
func meanTrajectories(cfg Config, f funcs.Function, n int, methodNames []string, test *dataset.Dataset, grid []float64) (map[string][]float64, error) {
	sums := map[string][]float64{}
	counts := map[string][]int{}
	for _, m := range methodNames {
		sums[m] = make([]float64, len(grid))
		counts[m] = make([]int, len(grid))
	}
	for rep := 0; rep < cfg.Reps; rep++ {
		rng := rand.New(rand.NewSource(seedFor(cfg.Seed, f.Name(), n, rep, "data")))
		train := funcs.Generate(f, n, sample.LatinHypercube{}, rng)
		for _, name := range methodNames {
			m, err := Get(name)
			if err != nil {
				return nil, err
			}
			mcfg := MethodConfig{L: cfg.LPrim, Sampler: sample.LatinHypercube{}}
			mrng := rand.New(rand.NewSource(seedFor(cfg.Seed, f.Name(), n, rep, name)))
			disc, err := m.Build(train, mcfg, mrng)
			if err != nil {
				return nil, err
			}
			res, err := disc.Discover(train, train, mrng)
			if err != nil {
				return nil, err
			}
			pts := metrics.Trajectory(res, test)
			for gi, rec := range grid {
				if p, ok := interpPrecision(pts, rec); ok {
					sums[name][gi] += p
					counts[name][gi]++
				}
			}
		}
	}
	out := map[string][]float64{}
	for _, name := range methodNames {
		curve := make([]float64, len(grid))
		for gi := range grid {
			if counts[name][gi] > 0 {
				curve[gi] = sums[name][gi] / float64(counts[name][gi])
			} else {
				curve[gi] = math.NaN()
			}
		}
		out[name] = curve
	}
	return out, nil
}

// interpPrecision linearly interpolates the trajectory's precision at a
// recall value; ok = false outside the curve's recall range.
func interpPrecision(pts []metrics.PRPoint, recall float64) (float64, bool) {
	if len(pts) == 0 {
		return 0, false
	}
	sorted := append([]metrics.PRPoint(nil), pts...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Recall < sorted[b].Recall })
	if recall < sorted[0].Recall || recall > sorted[len(sorted)-1].Recall {
		return 0, false
	}
	for i := 1; i < len(sorted); i++ {
		if recall <= sorted[i].Recall {
			lo, hi := sorted[i-1], sorted[i]
			if hi.Recall == lo.Recall {
				return math.Max(lo.Precision, hi.Precision), true
			}
			t := (recall - lo.Recall) / (hi.Recall - lo.Recall)
			return lo.Precision + t*(hi.Precision-lo.Precision), true
		}
	}
	return sorted[len(sorted)-1].Precision, true
}

// Render draws the trajectory chart and the PR AUC quartiles.
func (r *Fig11Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 11: peeling trajectories & PR AUC, \"morris\", N=400")
	chart := &report.Chart{
		Title:  "mean peeling trajectories (test data)",
		XLabel: "recall", YLabel: "precision",
	}
	grid := r.RecallGrid[0]
	for _, m := range r.Methods {
		chart.Series = append(chart.Series, report.Series{Name: m, X: grid, Y: r.Precision[m]})
	}
	chart.Render(w)
	fmt.Fprintln(w, "\nPR AUC x100, median [Q1, Q3]:")
	for _, m := range r.Methods {
		vals := r.Cell.Values(m, MetricPRAUC)
		for i := range vals {
			vals[i] *= 100
		}
		q1, med, q3 := stats.Quartiles(vals)
		fmt.Fprintf(w, "  %-4s %s\n", m, report.QuartileSummary(q1, med, q3))
	}
	// Significance: RPx vs Pc per repetition (Wilcoxon-Mann-Whitney).
	a := r.Cell.Values("RPx", MetricPRAUC)
	b := r.Cell.Values("Pc", MetricPRAUC)
	if _, p := stats.MannWhitney(a, b); p < 1 {
		fmt.Fprintf(w, "Wilcoxon-Mann-Whitney RPx vs Pc: p = %.4g (paper: < 1e-15)\n", p)
	}
}
