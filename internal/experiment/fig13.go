package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"

	"github.com/reds-go/reds/internal/box"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/lake"
	"github.com/reds-go/reds/internal/metrics"
	"github.com/reds-go/reds/internal/par"
	"github.com/reds-go/reds/internal/report"
	"github.com/reds-go/reds/internal/tgl"
)

// ThirdPartyMethods are compared on the third-party datasets
// (Section 9.3).
var ThirdPartyMethods = []string{"Pc", "RPf", "RPfp"}

// Fig13Result holds the third-party-data experiment: Figure 13 (peeling
// trajectories) and Table 5 (metrics) for "TGL" and "lake".
type Fig13Result struct {
	Datasets map[string]*thirdPartyOutcome
}

type thirdPartyOutcome struct {
	name    string
	byMeth  map[string][]RepOutcome
	boxes   map[string][]*box.Box
	domain  metrics.Domain
	relMask []bool
}

// Fig13 runs repeated stratified 5-fold cross-validation (paper: 10
// repetitions) of the third-party methods on the TGL and lake datasets.
func Fig13(cfg Config) (*Fig13Result, error) {
	repeats := 10
	if cfg.Reps < 10 {
		repeats = cfg.Reps
	}
	out := &Fig13Result{Datasets: map[string]*thirdPartyOutcome{}}

	sets := []struct {
		name string
		data *dataset.Dataset
		rel  []bool
	}{
		{"TGL", tgl.Dataset(cfg.Seed), tgl.Relevant()},
		{"lake", lake.Dataset(1000, cfg.Seed), nil},
	}
	for _, s := range sets {
		o, err := runThirdParty(cfg, s.name, s.data, s.rel, repeats)
		if err != nil {
			return nil, err
		}
		out.Datasets[s.name] = o
	}
	return out, nil
}

// runThirdParty executes repeats x 5-fold CV of every method.
func runThirdParty(cfg Config, name string, data *dataset.Dataset, rel []bool, repeats int) (*thirdPartyOutcome, error) {
	o := &thirdPartyOutcome{
		name:    name,
		byMeth:  map[string][]RepOutcome{},
		boxes:   map[string][]*box.Box{},
		domain:  metrics.UnitDomain(data.M()),
		relMask: rel,
	}
	type job struct{ rep, fold int }
	type res struct {
		outs []RepOutcome
		err  error
	}
	var jobs []job
	folds := make([][]dataset.Fold, repeats)
	for rep := 0; rep < repeats; rep++ {
		rng := rand.New(rand.NewSource(seedFor(cfg.Seed, name, data.N(), rep, "folds")))
		kf, err := dataset.KFold(data, 5, rng)
		if err != nil {
			return nil, err
		}
		folds[rep] = kf
		for f := range kf {
			jobs = append(jobs, job{rep, f})
		}
	}

	results := make([]res, len(jobs))
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	par.For(workers, len(jobs), func(_, ji int) {
		j := jobs[ji]
		f := folds[j.rep][j.fold]
		outs, err := runThirdPartyFold(cfg, name, f.Train, f.Test, j.rep*5+j.fold)
		results[ji] = res{outs, err}
	})

	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		for _, ro := range r.outs {
			o.byMeth[ro.Method] = append(o.byMeth[ro.Method], ro)
			o.boxes[ro.Method] = append(o.boxes[ro.Method], ro.Final)
		}
	}
	return o, nil
}

func runThirdPartyFold(cfg Config, name string, train, test *dataset.Dataset, rep int) ([]RepOutcome, error) {
	var outs []RepOutcome
	for _, mname := range ThirdPartyMethods {
		m, err := Get(mname)
		if err != nil {
			return nil, err
		}
		// The paper fixes alpha = 0.1 for TGL in line with prior work;
		// our "Pc" cross-validates alpha instead, and its grid contains
		// 0.1, so the published setting remains reachable.
		mcfg := MethodConfig{L: cfg.LPrim}
		rng := rand.New(rand.NewSource(seedFor(cfg.Seed, name, train.N(), rep, mname)))
		disc, err := m.Build(train, mcfg, rng)
		if err != nil {
			return nil, err
		}
		res, err := disc.Discover(train, train, rng)
		if err != nil {
			return nil, err
		}
		final := res.Final()
		prec, rec := metrics.PrecisionRecall(final, test)
		outs = append(outs, RepOutcome{
			Method: mname, Rep: rep,
			PRAUC:     metrics.ResultPRAUC(res, test),
			Precision: prec, Recall: rec,
			WRAcc:      metrics.WRAcc(final, test),
			Restricted: final.Restricted(),
			Final:      final,
		})
	}
	return outs, nil
}

// Render prints Table 5 and the trajectory summary of Figure 13.
func (r *Fig13Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 5 / Figure 13: performance on third-party datasets (x100 where applicable)")
	for _, name := range []string{"TGL", "lake"} {
		o := r.Datasets[name]
		if o == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s:\n", name)
		tbl := &report.Table{Header: append([]string{"metric"}, ThirdPartyMethods...)}
		addRow := func(label string, f func(m string) float64) {
			row := []interface{}{label}
			for _, m := range ThirdPartyMethods {
				row = append(row, f(m))
			}
			tbl.Add(row...)
		}
		mean := func(m string, metric func(RepOutcome) float64) float64 {
			outs := o.byMeth[m]
			if len(outs) == 0 {
				return 0
			}
			s := 0.0
			for _, ro := range outs {
				s += metric(ro)
			}
			return s / float64(len(outs))
		}
		addRow("PR AUC", func(m string) float64 { return 100 * mean(m, MetricPRAUC) })
		addRow("precision", func(m string) float64 { return 100 * mean(m, MetricPrecision) })
		addRow("consistency", func(m string) float64 {
			return 100 * metrics.Consistency(o.boxes[m], o.domain)
		})
		addRow("# restricted", func(m string) float64 { return mean(m, MetricRestricted) })
		tbl.Render(w)
	}
}
