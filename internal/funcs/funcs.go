// Package funcs implements the data sources of Table 1 of the paper: the
// analytic test functions from the metamodeling literature, the paper's own
// "ellipse" function, and the stochastic classification functions standing
// in for Dalal et al. 2013 functions 1-8 and 102. Each function maps the
// unit cube [0,1]^M to a raw output (deterministic functions) or directly
// to P(y=1|x) (stochastic functions); binarization follows the paper's
// convention y = 1 iff output < threshold.
//
// Functions whose published formulas we verified are implemented exactly
// (borehole, hart3, hart4, hart6sc, ishigami, linketal06dec,
// linketal06simple, morris, sobol, otlcircuit, piston, welchetal92,
// wingweight, ellipse). The remaining ones are structurally faithful
// stand-ins with the same dimensionality, the same number of relevant
// inputs and a threshold calibrated to approximately the positive share of
// Table 1; standins.go documents each substitution.
package funcs

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/sample"
)

// Function is a simulation-model stand-in defined on the unit cube.
type Function interface {
	// Name returns the identifier used in Table 1.
	Name() string
	// Dim returns the number of inputs M.
	Dim() int
	// Relevant returns the mask of inputs that influence the output
	// (ground truth for the #irrel metric). Its length equals Dim.
	Relevant() []bool
	// Stochastic reports whether Eval returns P(y=1|x) rather than a raw
	// deterministic output.
	Stochastic() bool
	// Eval evaluates the model at a point of the unit cube.
	Eval(x []float64) float64
	// Threshold returns the binarization threshold thr (y=1 iff raw < thr).
	// Stochastic functions return NaN.
	Threshold() float64
}

// Label draws the binary outcome of one simulation run at x. Deterministic
// functions threshold their output; stochastic ones flip a coin with
// probability Eval(x).
func Label(f Function, x []float64, rng *rand.Rand) float64 {
	v := f.Eval(x)
	if f.Stochastic() {
		if rng.Float64() < v {
			return 1
		}
		return 0
	}
	if v < f.Threshold() {
		return 1
	}
	return 0
}

// Prob returns P(y=1|x): Eval for stochastic functions, a 0/1 indicator
// for deterministic ones.
func Prob(f Function, x []float64) float64 {
	v := f.Eval(x)
	if f.Stochastic() {
		return v
	}
	if v < f.Threshold() {
		return 1
	}
	return 0
}

// Generate samples n points with s and labels them by running the
// simulation model once per point, exactly like step (1)-(2) of the
// conventional scenario-discovery process.
func Generate(f Function, n int, s sample.Sampler, rng *rand.Rand) *dataset.Dataset {
	pts := s.Sample(n, f.Dim(), rng)
	y := make([]float64, n)
	for i, x := range pts {
		y[i] = Label(f, x, rng)
	}
	return &dataset.Dataset{X: pts, Y: y}
}

// Share estimates the positive share E[y] by Monte Carlo with n uniform
// points.
func Share(f Function, n int, rng *rand.Rand) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		x := make([]float64, f.Dim())
		for j := range x {
			x[j] = rng.Float64()
		}
		s += Label(f, x, rng)
	}
	return s / float64(n)
}

// scale maps u in [0,1] to [lo, hi].
func scale(u, lo, hi float64) float64 { return lo + u*(hi-lo) }

// relevantAll returns an all-true mask of length m.
func relevantAll(m int) []bool {
	r := make([]bool, m)
	for i := range r {
		r[i] = true
	}
	return r
}

// relevantFirst returns a mask with the first k of m inputs relevant.
func relevantFirst(k, m int) []bool {
	r := make([]bool, m)
	for i := 0; i < k; i++ {
		r[i] = true
	}
	return r
}

// fn is the common implementation of Function used by all the analytic
// functions in this package.
type fn struct {
	name       string
	dim        int
	relevant   []bool
	stochastic bool
	thr        float64
	eval       func(x []float64) float64
}

func (f *fn) Name() string       { return f.name }
func (f *fn) Dim() int           { return f.dim }
func (f *fn) Relevant() []bool   { return f.relevant }
func (f *fn) Stochastic() bool   { return f.stochastic }
func (f *fn) Threshold() float64 { return f.thr }
func (f *fn) Eval(x []float64) float64 {
	if len(x) != f.dim {
		panic(fmt.Sprintf("funcs: %s expects %d inputs, got %d", f.name, f.dim, len(x)))
	}
	return f.eval(x)
}

var registry = map[string]Function{}
var registryOrder []string

func register(f Function) Function {
	if _, dup := registry[f.Name()]; dup {
		panic("funcs: duplicate function " + f.Name())
	}
	registry[f.Name()] = f
	registryOrder = append(registryOrder, f.Name())
	return f
}

// Get returns the registered function with the given Table 1 name.
func Get(name string) (Function, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("funcs: unknown function %q", name)
	}
	return f, nil
}

// Names returns all registered function names in registration order.
func Names() []string {
	out := append([]string(nil), registryOrder...)
	return out
}

// All returns all registered functions sorted by name for deterministic
// iteration.
func All() []Function {
	names := Names()
	sort.Strings(names)
	out := make([]Function, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}
