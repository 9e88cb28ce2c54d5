package experiment

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/reds-go/reds/internal/core"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/gbt"
	"github.com/reds-go/reds/internal/metrics"
	"github.com/reds-go/reds/internal/prim"
	"github.com/reds-go/reds/internal/report"
	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/sd"
)

// AblationResult quantifies this reproduction's design decisions, on
// the same cells as the main comparison:
//
//   - validation data for REDS's inner PRIM: real examples (the paper's
//     D_val = D, our default) vs the pseudo-labeled set;
//   - pseudo-label type: thresholded {0,1} vs raw probabilities;
//   - PRIM peel objective: mean vs support-weighted lift;
//   - pasting phase: off (paper default) vs on.
type AblationResult struct {
	Variants []string
	// Rows: function -> variant -> mean of (PR AUC, precision, recall).
	Rows map[string]map[string][3]float64
	Fns  []string
}

// ablationVariants enumerates the configurations. All share the same
// gradient-boosting metamodel and budget so differences isolate the
// single design decision.
func ablationVariants(l int) map[string]sd.Discoverer {
	mk := func(probLabels, pseudoVal bool, obj prim.Objective, paste bool) sd.Discoverer {
		return &core.REDS{
			Metamodel:        gbt.TunedTrainer(),
			L:                l,
			SD:               &prim.Peeler{Objective: obj, Paste: paste},
			ProbLabels:       probLabels,
			ValidateOnPseudo: pseudoVal,
		}
	}
	return map[string]sd.Discoverer{
		"base(realval,hard)": mk(false, false, prim.ObjectiveMean, false),
		"pseudo-val":         mk(false, true, prim.ObjectiveMean, false),
		"prob-labels":        mk(true, false, prim.ObjectiveMean, false),
		"lift-objective":     mk(false, false, prim.ObjectiveLift, false),
		"with-pasting":       mk(false, false, prim.ObjectiveMean, true),
	}
}

// AblationOrder fixes the rendering order of the variants.
var AblationOrder = []string{
	"base(realval,hard)", "pseudo-val", "prob-labels", "lift-objective", "with-pasting",
}

// Ablation runs every variant on every configured function at the middle
// N.
func Ablation(cfg Config) (*AblationResult, error) {
	n := midN(cfg.Ns)
	variants := ablationVariants(cfg.LPrim)
	res := &AblationResult{Variants: AblationOrder, Rows: map[string]map[string][3]float64{}}
	for _, fname := range cfg.Funcs {
		if fname == "" {
			continue
		}
		f, err := Function(fname)
		if err != nil {
			return nil, err
		}
		test := CachedTestSet(f, cfg.TestN, cfg.Seed)
		res.Fns = append(res.Fns, fname)
		res.Rows[fname] = map[string][3]float64{}
		for _, vname := range AblationOrder {
			disc := variants[vname]
			var auc, prec, rec float64
			for rep := 0; rep < cfg.Reps; rep++ {
				rng := rand.New(rand.NewSource(seedFor(cfg.Seed, fname, n, rep, "abl|data")))
				train := funcs.Generate(f, n, sample.LatinHypercube{}, rng)
				mrng := rand.New(rand.NewSource(seedFor(cfg.Seed, fname, n, rep, "abl|"+vname)))
				r, err := disc.Discover(train, train, mrng)
				if err != nil {
					return nil, fmt.Errorf("experiment: ablation %s on %s: %w", vname, fname, err)
				}
				a := metrics.ResultPRAUC(r, test)
				p, rc := metrics.PrecisionRecall(r.Final(), test)
				auc += a
				prec += p
				rec += rc
			}
			k := float64(cfg.Reps)
			res.Rows[fname][vname] = [3]float64{auc / k, prec / k, rec / k}
		}
	}
	return res, nil
}

// Render prints one block per metric.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Ablation: REDS design decisions (gradient-boosting metamodel)")
	metricsList := []struct {
		name string
		idx  int
	}{{"PR AUC x100", 0}, {"final-box precision x100", 1}, {"final-box recall x100", 2}}
	for _, m := range metricsList {
		fmt.Fprintf(w, "\n%s\n", m.name)
		tbl := &report.Table{Header: append([]string{"function"}, r.Variants...)}
		for _, fn := range r.Fns {
			row := []interface{}{fn}
			for _, v := range r.Variants {
				row = append(row, 100*r.Rows[fn][v][m.idx])
			}
			tbl.Add(row...)
		}
		tbl.Render(w)
	}
	fmt.Fprintln(w, "\nReading guide: 'pseudo-val' drills into metamodel artifacts (higher")
	fmt.Fprintln(w, "precision, collapsed recall); 'prob-labels' is the paper's p-variant;")
	fmt.Fprintln(w, "'lift-objective' trades precision for support; pasting barely moves")
	fmt.Fprintln(w, "anything (Section 3.2.1's observation).")
}
