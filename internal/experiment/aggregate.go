package experiment

import (
	"fmt"
	"sort"

	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/stats"
)

// Suite holds the cells of a multi-function, multi-N experiment:
// cells[function][N] -> CellResult.
type Suite struct {
	Cells map[string]map[int]*CellResult
	Funcs []string
	Ns    []int
}

// runSuite executes one cell per (function, N) with the shared test set
// of each function.
func runSuite(cfg Config, methodNames []string, ns []int, smp sample.Sampler, mixed bool, testSmp sample.Sampler) (*Suite, error) {
	suite := &Suite{Cells: map[string]map[int]*CellResult{}, Ns: ns}
	for _, name := range cfg.Funcs {
		if name == "" {
			continue
		}
		f, err := Function(name)
		if err != nil {
			return nil, err
		}
		test := cachedTestSetWith(f, cfg.TestN, cfg.Seed, testSmp, samplerTag(testSmp))
		suite.Funcs = append(suite.Funcs, name)
		suite.Cells[name] = map[int]*CellResult{}
		for _, n := range ns {
			cell, err := RunCell(Cell{
				Function: f,
				N:        n,
				Reps:     cfg.Reps,
				Methods:  methodNames,
				Sampler:  smp,
				Mixed:    mixed,
				LPrim:    cfg.LPrim,
				LBI:      cfg.LBI,
				Test:     test,
				Seed:     cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			suite.Cells[name][n] = cell
		}
	}
	if len(suite.Funcs) == 0 {
		return nil, fmt.Errorf("experiment: no functions configured")
	}
	return suite, nil
}

// avgOver averages a per-cell aggregate across all functions at one N.
func (s *Suite) avgOver(n int, agg func(*CellResult) float64) float64 {
	sum, cnt := 0.0, 0
	for _, fn := range s.Funcs {
		cell := s.Cells[fn][n]
		if cell == nil {
			continue
		}
		sum += agg(cell)
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// pctChanges returns the per-function percentage change of a method's
// cell aggregate relative to a reference method, at one N — the quantity
// plotted in Figures 7, 8, 10 and 14.
func (s *Suite) pctChanges(n int, method, reference string, agg func(*CellResult, string) float64) []float64 {
	var out []float64
	for _, fn := range s.Funcs {
		cell := s.Cells[fn][n]
		if cell == nil {
			continue
		}
		ref := agg(cell, reference)
		if ref == 0 {
			continue
		}
		out = append(out, 100*(agg(cell, method)-ref)/ref)
	}
	return out
}

// cellMean adapts CellResult.Mean to the two-argument form pctChanges
// expects.
func cellMean(metric func(RepOutcome) float64) func(*CellResult, string) float64 {
	return func(c *CellResult, method string) float64 { return c.Mean(method, metric) }
}

// cellConsistency adapts CellResult.Consistency.
func cellConsistency() func(*CellResult, string) float64 {
	return func(c *CellResult, method string) float64 { return c.Consistency(method) }
}

// quartileRow formats "median [q1, q3]" of a sample.
func quartileRow(vals []float64) string {
	if len(vals) == 0 {
		return "-"
	}
	q1, med, q3 := stats.Quartiles(vals)
	return fmt.Sprintf("%+.1f [%+.1f, %+.1f]", med, q1, q3)
}

// perRunMatrix builds the blocks × methods matrix of per-function means
// used by the Friedman test.
func (s *Suite) perRunMatrix(n int, methodNames []string, agg func(*CellResult, string) float64) [][]float64 {
	var matrix [][]float64
	for _, fn := range s.Funcs {
		cell := s.Cells[fn][n]
		if cell == nil {
			continue
		}
		row := make([]float64, len(methodNames))
		for j, m := range methodNames {
			row[j] = agg(cell, m)
		}
		matrix = append(matrix, row)
	}
	return matrix
}

// spearmanDimVsImprovement returns the Spearman correlation between the
// input dimensionality M and the relative improvement of method over
// reference (Section 9.1's M-vs-gain analysis).
func (s *Suite) spearmanDimVsImprovement(n int, method, reference string, agg func(*CellResult, string) float64) float64 {
	var ms, gains []float64
	for _, fn := range s.Funcs {
		cell := s.Cells[fn][n]
		if cell == nil {
			continue
		}
		f, err := Function(fn)
		if err != nil {
			continue
		}
		ref := agg(cell, reference)
		if ref == 0 {
			continue
		}
		ms = append(ms, float64(f.Dim()))
		gains = append(gains, 100*(agg(cell, method)-ref)/ref)
	}
	return stats.Spearman(ms, gains)
}

// samplerTag names a sampler for test-set cache keys.
func samplerTag(s sample.Sampler) string {
	switch s.(type) {
	case nil:
		return "uniform"
	case sample.Uniform:
		return "uniform"
	case sample.LatinHypercube:
		return "lhs"
	case sample.Halton:
		return "halton"
	case sample.LogitNormal:
		return "logitnormal"
	case sample.Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("%T", s)
	}
}

// sortedCopy returns a sorted copy of xs (ascending).
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
