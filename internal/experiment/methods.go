package experiment

import (
	"fmt"
	"math/rand"

	"github.com/reds-go/reds/internal/bi"
	"github.com/reds-go/reds/internal/core"
	"github.com/reds-go/reds/internal/cv"
	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/gbt"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/prim"
	"github.com/reds-go/reds/internal/rf"
	"github.com/reds-go/reds/internal/sample"
	"github.com/reds-go/reds/internal/sd"
	"github.com/reds-go/reds/internal/svm"
)

// Kind distinguishes the two method families of Section 9, which are
// scored with different headline metrics.
type Kind int

const (
	// PRIMBased methods report PR AUC / precision (Table 3).
	PRIMBased Kind = iota
	// BIBased methods report WRAcc (Table 4).
	BIBased
)

// Method is a named scenario-discovery procedure following the paper's
// conventions (Section 8.2): "P" peel, "B" bumping / "BI" BestInterval,
// "c" cross-validated hyperparameters, "R" REDS with metamodel suffixes
// "f"/"x"/"s" and "p" for probability labels. A "b" after the metamodel
// suffix trains it on the histogram-binned fast path (the engine's
// train_mode "binned"); the paper has no such methods.
type Method struct {
	Name string
	Kind Kind
	// Build assembles the configured discoverer for the given training
	// data; cross-validated hyperparameter selection happens here, so
	// measured runtimes include it like the paper's do.
	Build func(d *dataset.Dataset, mcfg MethodConfig, rng *rand.Rand) (sd.Discoverer, error)
}

// MethodConfig carries the experiment-level knobs a method needs.
type MethodConfig struct {
	// L is the REDS pseudo-dataset size (set from Config.LPrim/LBI).
	L int
	// Sampler generates REDS's new points; must match the p(x) of the
	// training data (Section 6.1). Defaults to Latin hypercube.
	Sampler sample.Sampler
	// MinPoints is PRIM's support floor (20 throughout the paper).
	MinPoints int
	// Q is the bumping repetition count (50 throughout the paper).
	Q int
}

func (m MethodConfig) withDefaults() MethodConfig {
	if m.MinPoints == 0 {
		m.MinPoints = 20
	}
	if m.Q == 0 {
		m.Q = 50
	}
	if m.L == 0 {
		m.L = 10000
	}
	if m.Sampler == nil {
		m.Sampler = sample.LatinHypercube{}
	}
	return m
}

// trainer returns the metamodel trainer for a REDS suffix: "f", "x" or
// "s", or "fb"/"xb" for binned rf/xgb at dataset.DefaultBins.
func trainer(code string, m int) (metamodel.Trainer, error) {
	switch code {
	case "f":
		return rf.TunedTrainer(m), nil
	case "fb":
		return rf.TunedTrainerBinned(m, 0), nil
	case "x":
		return gbt.TunedTrainer(), nil
	case "xb":
		return gbt.TunedTrainerBinned(0), nil
	case "s":
		return svm.TunedTrainer(), nil
	}
	return nil, fmt.Errorf("experiment: unknown metamodel code %q", code)
}

// methods is the registry of all named procedures used in Section 9.
var methods = map[string]Method{}

func registerMethod(m Method) {
	if _, dup := methods[m.Name]; dup {
		panic("experiment: duplicate method " + m.Name)
	}
	methods[m.Name] = m
}

// Get returns a registered method.
func Get(name string) (Method, error) {
	m, ok := methods[name]
	if !ok {
		return Method{}, fmt.Errorf("experiment: unknown method %q", name)
	}
	return m, nil
}

// MethodNames lists all registered methods.
func MethodNames() []string {
	out := make([]string, 0, len(methods))
	for n := range methods {
		out = append(out, n)
	}
	return out
}

func init() {
	// --- Conventional PRIM-based baselines ---
	registerMethod(Method{Name: "P", Kind: PRIMBased,
		Build: func(d *dataset.Dataset, mcfg MethodConfig, rng *rand.Rand) (sd.Discoverer, error) {
			return &prim.Peeler{Alpha: 0.05, MinPoints: mcfg.MinPoints}, nil
		}})
	registerMethod(Method{Name: "Pc", Kind: PRIMBased,
		Build: func(d *dataset.Dataset, mcfg MethodConfig, rng *rand.Rand) (sd.Discoverer, error) {
			alpha, err := cv.SelectAlpha(d, mcfg.MinPoints, rng)
			if err != nil {
				return nil, err
			}
			return &prim.Peeler{Alpha: alpha, MinPoints: mcfg.MinPoints}, nil
		}})
	registerMethod(Method{Name: "PB", Kind: PRIMBased,
		Build: func(d *dataset.Dataset, mcfg MethodConfig, rng *rand.Rand) (sd.Discoverer, error) {
			return &prim.Bumping{Alpha: 0.05, MinPoints: mcfg.MinPoints, Q: mcfg.Q}, nil
		}})
	registerMethod(Method{Name: "PBc", Kind: PRIMBased,
		Build: func(d *dataset.Dataset, mcfg MethodConfig, rng *rand.Rand) (sd.Discoverer, error) {
			alpha, err := cv.SelectAlpha(d, mcfg.MinPoints, rng)
			if err != nil {
				return nil, err
			}
			m, err := cv.SelectMBumping(d, alpha, mcfg.MinPoints, mcfg.Q, rng)
			if err != nil {
				return nil, err
			}
			return &prim.Bumping{Alpha: alpha, MinPoints: mcfg.MinPoints, Q: mcfg.Q, SubsetSize: m}, nil
		}})

	// --- REDS with PRIM ---
	for _, mm := range []string{"f", "x", "s"} {
		registerMethod(Method{Name: "RP" + mm, Kind: PRIMBased,
			Build: redsPrimBuilder(mm, false, false)})
		if mm != "s" { // probability labels only for rf and xgb (Section 6.1)
			registerMethod(Method{Name: "RP" + mm + "p", Kind: PRIMBased,
				Build: redsPrimBuilder(mm, true, false)})
			// svm has no binned path.
			registerMethod(Method{Name: "RP" + mm + "b", Kind: PRIMBased,
				Build: redsPrimBuilder(mm+"b", false, false)})
		}
	}
	// "RPcxp": CV-selected alpha + xgb + probability labels (Section 9.1.2).
	registerMethod(Method{Name: "RPcxp", Kind: PRIMBased,
		Build: redsPrimBuilder("x", true, true)})

	// --- BI-based ---
	registerMethod(Method{Name: "BI", Kind: BIBased,
		Build: func(d *dataset.Dataset, mcfg MethodConfig, rng *rand.Rand) (sd.Discoverer, error) {
			return &bi.BI{BeamSize: 1}, nil
		}})
	registerMethod(Method{Name: "BI5", Kind: BIBased,
		Build: func(d *dataset.Dataset, mcfg MethodConfig, rng *rand.Rand) (sd.Discoverer, error) {
			return &bi.BI{BeamSize: 5}, nil
		}})
	registerMethod(Method{Name: "BIc", Kind: BIBased,
		Build: func(d *dataset.Dataset, mcfg MethodConfig, rng *rand.Rand) (sd.Discoverer, error) {
			m, err := cv.SelectMBI(d, 1, rng)
			if err != nil {
				return nil, err
			}
			return &bi.BI{BeamSize: 1, Depth: m}, nil
		}})
	registerMethod(Method{Name: "RBIcxp", Kind: BIBased, Build: redsBIBuilder("x")})
	registerMethod(Method{Name: "RBIcfp", Kind: BIBased, Build: redsBIBuilder("f")})
}

// redsPrimBuilder assembles a REDS+PRIM method: metamodel mm, optional
// probability labels, optional CV-selected alpha (selected on D, per
// Section 8.4.3).
func redsPrimBuilder(mm string, probLabels, cvAlpha bool) func(*dataset.Dataset, MethodConfig, *rand.Rand) (sd.Discoverer, error) {
	return func(d *dataset.Dataset, mcfg MethodConfig, rng *rand.Rand) (sd.Discoverer, error) {
		mcfg = mcfg.withDefaults()
		tr, err := trainer(mm, d.M())
		if err != nil {
			return nil, err
		}
		alpha := 0.05
		if cvAlpha {
			if alpha, err = cv.SelectAlpha(d, mcfg.MinPoints, rng); err != nil {
				return nil, err
			}
		}
		return &core.REDS{
			Metamodel:  tr,
			Sampler:    mcfg.Sampler,
			L:          mcfg.L,
			SD:         &prim.Peeler{Alpha: alpha, MinPoints: mcfg.MinPoints},
			ProbLabels: probLabels,
		}, nil
	}
}

// redsBIBuilder assembles a REDS+BIc method with probability labels: the
// depth m is cross-validated on D, not on Dnew (Section 8.4.3).
func redsBIBuilder(mm string) func(*dataset.Dataset, MethodConfig, *rand.Rand) (sd.Discoverer, error) {
	return func(d *dataset.Dataset, mcfg MethodConfig, rng *rand.Rand) (sd.Discoverer, error) {
		mcfg = mcfg.withDefaults()
		tr, err := trainer(mm, d.M())
		if err != nil {
			return nil, err
		}
		m, err := cv.SelectMBI(d, 1, rng)
		if err != nil {
			return nil, err
		}
		return &core.REDS{
			Metamodel:  tr,
			Sampler:    mcfg.Sampler,
			L:          mcfg.L,
			SD:         &bi.BI{BeamSize: 1, Depth: m},
			ProbLabels: true,
		}, nil
	}
}
