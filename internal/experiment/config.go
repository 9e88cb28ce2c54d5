// Package experiment reproduces the evaluation of the paper: the method
// registry with the naming scheme of Section 8.2, a parallel repetition
// runner implementing the design of experiments of Section 8.5, and one
// driver per table and figure of Section 9.
package experiment

import (
	"io"
	"os"

	"github.com/reds-go/reds/internal/dsgc"
	"github.com/reds-go/reds/internal/funcs"
)

// Config scales the experiments. The paper's full scale (50 repetitions,
// 33 functions, L = 10^5) takes CPU-days; the default configuration keeps
// the same structure at a fraction of the cost. Paper() restores full
// scale.
type Config struct {
	// Funcs are the data-source names to include ("" entries are skipped).
	Funcs []string
	// Reps is the number of repetitions per (function, N) cell.
	Reps int
	// Ns are the training-set sizes.
	Ns []int
	// TestN is the independent test-set size (paper: 20000).
	TestN int
	// LPrim / LBI are REDS's new-dataset sizes for PRIM- and BI-based
	// methods (paper: 100000 and 10000).
	LPrim int
	LBI   int
	// Seed anchors all randomness.
	Seed int64
	// Out receives rendered tables and charts (default os.Stdout).
	Out io.Writer
}

// DefaultFuncs is a representative cross-section of Table 1: stochastic
// Dalal-style functions, verified engineering functions, a
// high-dimensional screen, and stand-ins, covering M from 3 to 20.
var DefaultFuncs = []string{
	"f2", "f7", "hart3", "ishigami", "borehole", "morris", "ellipse", "linketal06simple",
}

// Default returns the reduced-scale configuration.
func Default() Config {
	return Config{
		Funcs: DefaultFuncs,
		Reps:  5,
		Ns:    []int{200, 400},
		TestN: 5000,
		LPrim: 20000,
		LBI:   4000,
		Seed:  1,
		Out:   os.Stdout,
	}
}

// Paper returns the full-scale configuration of Section 8.5.
func Paper() Config {
	names := make([]string, 0, len(funcs.Table1)+1)
	for _, m := range funcs.Table1 {
		names = append(names, m.Name)
	}
	names = append(names, "dsgc")
	return Config{
		Funcs: names,
		Reps:  50,
		Ns:    []int{200, 400, 800},
		TestN: 20000,
		LPrim: 100000,
		LBI:   10000,
		Seed:  1,
		Out:   os.Stdout,
	}
}

// Function resolves a data-source name to its model: the analytic
// registry of Table 1 plus the dsgc simulator.
func Function(name string) (funcs.Function, error) {
	if name == "dsgc" {
		return dsgc.New(), nil
	}
	return funcs.Get(name)
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return os.Stdout
	}
	return c.Out
}
