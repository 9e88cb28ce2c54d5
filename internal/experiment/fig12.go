package experiment

import (
	"fmt"
	"io"

	"github.com/reds-go/reds/internal/report"
	"github.com/reds-go/reds/internal/stats"
)

// Fig12Result holds the four learning-curve panels of Section 9.2.2 on
// "morris": quality vs N (left) and vs L (right), for PRIM-based (top)
// and BI-based (bottom) methods.
type Fig12Result struct {
	NsPrim, NsBI []int
	Ls           []int
	// medians[panel][method] -> one value per x position; iqr likewise
	// stores (q3-q1)/2.
	Medians map[string]map[string][]float64
	Q1s     map[string]map[string][]float64
	Q3s     map[string]map[string][]float64
}

// fig12Panels enumerate the methods per panel.
var (
	fig12PrimN = []string{"P", "Pc", "RPx", "RPxp"}
	fig12PrimL = []string{"P", "RPx", "RPxp"}
	fig12BIN   = []string{"BI", "BIc", "RBIcxp"}
	fig12BIL   = []string{"BI", "RBIcxp"}
)

// Fig12 sweeps N (with fixed L) and L (with fixed N = 400) on "morris".
// The sweep grids shrink with the configured scale: reduced
// configurations use a prefix of the paper's grids.
func Fig12(cfg Config) (*Fig12Result, error) {
	f, err := Function("morris")
	if err != nil {
		return nil, err
	}
	test := CachedTestSet(f, cfg.TestN, cfg.Seed)

	nsAll := []int{200, 400, 800, 1600, 3200}
	lsAll := []int{200, 400, 800, 1600, 3200, 6400, 25000}
	ns := nsAll
	ls := lsAll
	if cfg.Reps < 50 { // reduced scale
		ns = nsAll[:3]
		ls = lsAll[:4]
	}

	res := &Fig12Result{
		NsPrim: ns, NsBI: ns, Ls: ls,
		Medians: map[string]map[string][]float64{},
		Q1s:     map[string]map[string][]float64{},
		Q3s:     map[string]map[string][]float64{},
	}
	record := func(panel, method string, vals []float64) {
		if res.Medians[panel] == nil {
			res.Medians[panel] = map[string][]float64{}
			res.Q1s[panel] = map[string][]float64{}
			res.Q3s[panel] = map[string][]float64{}
		}
		q1, med, q3 := stats.Quartiles(vals)
		res.Medians[panel][method] = append(res.Medians[panel][method], med)
		res.Q1s[panel][method] = append(res.Q1s[panel][method], q1)
		res.Q3s[panel][method] = append(res.Q3s[panel][method], q3)
	}

	// Panels (a) and (c): sweep N.
	for _, n := range ns {
		cell, err := RunCell(Cell{
			Function: f, N: n, Reps: cfg.Reps,
			Methods: append(append([]string{}, fig12PrimN...), fig12BIN...),
			LPrim:   cfg.LPrim, LBI: cfg.LBI,
			Test: test, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, m := range fig12PrimN {
			record("prim-N", m, cell.Values(m, MetricPRAUC))
		}
		for _, m := range fig12BIN {
			record("bi-N", m, cell.Values(m, MetricWRAcc))
		}
	}

	// Panels (b) and (d): sweep L at N = 400. The conventional baselines
	// do not depend on L; they are run once and rendered flat.
	for _, l := range ls {
		cell, err := RunCell(Cell{
			Function: f, N: 400, Reps: cfg.Reps,
			Methods: []string{"RPx", "RPxp", "RBIcxp"},
			LPrim:   l, LBI: l,
			Test: test, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		record("prim-L", "RPx", cell.Values("RPx", MetricPRAUC))
		record("prim-L", "RPxp", cell.Values("RPxp", MetricPRAUC))
		record("bi-L", "RBIcxp", cell.Values("RBIcxp", MetricWRAcc))
	}
	base, err := RunCell(Cell{
		Function: f, N: 400, Reps: cfg.Reps,
		Methods: []string{"P", "BI"},
		LPrim:   cfg.LPrim, LBI: cfg.LBI,
		Test: test, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	for range ls {
		record("prim-L", "P", base.Values("P", MetricPRAUC))
		record("bi-L", "BI", base.Values("BI", MetricWRAcc))
	}
	return res, nil
}

// Render draws the four panels as charts plus a numeric table.
func (r *Fig12Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 12: influence of N and L, function \"morris\" (median, x100)")
	panels := []struct {
		key    string
		title  string
		xs     []int
		xlabel string
	}{
		{"prim-N", "(a) PR AUC vs N (L fixed)", r.NsPrim, "N"},
		{"prim-L", "(b) PR AUC vs L (N=400)", r.Ls, "L"},
		{"bi-N", "(c) WRAcc vs N (L fixed)", r.NsBI, "N"},
		{"bi-L", "(d) WRAcc vs L (N=400)", r.Ls, "L"},
	}
	for _, p := range panels {
		fmt.Fprintf(w, "\n%s\n", p.title)
		tbl := &report.Table{Header: []string{p.xlabel}}
		methodsOf := make([]string, 0, len(r.Medians[p.key]))
		for m := range r.Medians[p.key] {
			methodsOf = append(methodsOf, m)
		}
		// stable order: follow the panel's registration lists
		ordered := orderMethods(p.key, methodsOf)
		for _, m := range ordered {
			tbl.Header = append(tbl.Header, m+" med", m+" IQR")
		}
		for xi, x := range p.xs {
			row := []interface{}{fmt.Sprintf("%d", x)}
			for _, m := range ordered {
				med := r.Medians[p.key][m][xi] * 100
				iqr := (r.Q3s[p.key][m][xi] - r.Q1s[p.key][m][xi]) * 100
				row = append(row, med, iqr)
			}
			tbl.Add(row...)
		}
		tbl.Render(w)
	}
}

func orderMethods(panel string, present []string) []string {
	var want []string
	switch panel {
	case "prim-N":
		want = fig12PrimN
	case "prim-L":
		want = fig12PrimL
	case "bi-N":
		want = fig12BIN
	case "bi-L":
		want = fig12BIL
	}
	set := map[string]bool{}
	for _, m := range present {
		set[m] = true
	}
	var out []string
	for _, m := range want {
		if set[m] {
			out = append(out, m)
		}
	}
	return out
}
