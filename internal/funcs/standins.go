package funcs

import (
	"math"
	"math/rand"
)

// This file holds structurally faithful stand-ins for the Table 1
// functions whose exact published constants we could not verify offline;
// each stand-in's comment documents its substitution. Every stand-in keeps
// the dimensionality M, the relevant-input count I and the threshold of
// Table 1, and its constants are calibrated so the Monte-Carlo positive
// share lands close to the paper's "share" column.

// Linketal06sin stands in for Linkletter et al. 2006's sine function:
// two active inputs out of ten, a trigonometric response, thr = 0.
var Linketal06sin = register(&fn{
	name: "linketal06sin", dim: 10, relevant: relevantFirst(2, 10), thr: 0,
	eval: func(x []float64) float64 {
		return math.Sin(2*math.Pi*x[0]) + math.Sin(2*math.Pi*x[1]) + 0.62
	},
})

// Willetal06 stands in for Williams et al. 2006: a smooth bump over two of
// three inputs, thr = -1.
var Willetal06 = register(&fn{
	name: "willetal06", dim: 3, relevant: relevantFirst(2, 3), thr: -1,
	eval: func(x []float64) float64 {
		d := (x[0]-0.4)*(x[0]-0.4) + (x[1]-0.6)*(x[1]-0.6)
		return -1.5 * math.Exp(-5*d)
	},
})

// Loepetal13 stands in for Loeppky et al. 2013: three strong linear
// effects with pairwise interactions plus four weak effects, three inert
// inputs.
var Loepetal13 = register(&fn{
	name: "loepetal13", dim: 10, relevant: relevantFirst(7, 10), thr: 9,
	eval: func(x []float64) float64 {
		return 6*x[0] + 4*x[1] + 5.5*x[2] +
			3*x[0]*x[1] + 2.2*x[0]*x[2] + 1.4*x[1]*x[2] +
			0.5*x[3] + 0.2*x[4] + 0.1*x[5] + 0.05*x[6]
	},
})

// Moon10low stands in for Moon 2010's low-dimensional function: three
// active inputs with one interaction.
var Moon10low = register(&fn{
	name: "moon10low", dim: 3, relevant: relevantAll(3), thr: 1.5,
	eval: func(x []float64) float64 {
		return x[0] + x[1] + x[2] + 0.3*x[0]*x[1]
	},
})

// Moon10hd stands in for Moon 2010's high-dimensional function: twenty
// active linear effects with linearly decaying weights.
var Moon10hd = register(&fn{
	name: "moon10hd", dim: 20, relevant: relevantAll(20), thr: 0,
	eval: func(x []float64) float64 {
		s := 0.31
		for j := 0; j < 20; j++ {
			s += (float64(21-j-1) / 10) * (x[j] - 0.5)
		}
		return s
	},
})

// Moon10hdc1 stands in for the Moon 2010 variant with only five of twenty
// inputs active.
var Moon10hdc1 = register(&fn{
	name: "moon10hdc1", dim: 20, relevant: relevantFirst(5, 20), thr: 0,
	eval: func(x []float64) float64 {
		return 2*(x[0]-0.5) + 1.6*(x[1]-0.5) + 1.2*(x[2]-0.5) +
			0.8*(x[3]-0.5) + 0.4*(x[4]-0.5) +
			1.5*(x[0]-0.5)*(x[1]-0.5) + 0.35
	},
})

// Morretal06 stands in for Morris et al. 2006: ten active inputs of thirty
// with negative main effects and pairwise interactions.
var Morretal06 = register(&fn{
	name: "morretal06", dim: 30, relevant: relevantFirst(10, 30), thr: -330,
	eval: func(x []float64) float64 {
		lin := 0.0
		for j := 0; j < 10; j++ {
			lin += x[j]
		}
		inter := 0.0
		for i := 0; i < 10; i++ {
			for j := i + 1; j < 10; j++ {
				inter += x[i] * x[j]
			}
		}
		return -45*lin - 8*inter
	},
})

// soblev99B are geometrically decaying Sobol-Levitan exponents; the last
// input is inert (19 of 20 active, matching Table 1).
var soblev99B = []float64{
	3.0, 2.5, 2.0, 1.5, 1.2, 1.0, 0.8, 0.6, 0.5, 0.4,
	0.3, 0.25, 0.2, 0.15, 0.1, 0.08, 0.05, 0.03, 0.02, 0,
}

// soblev99I0 is E[exp(Σ bj xj)] = Π (e^bj - 1)/bj over the nonzero b.
var soblev99I0 = func() float64 {
	p := 1.0
	for _, b := range soblev99B {
		if b == 0 {
			continue
		}
		p *= (math.Exp(b) - 1) / b
	}
	return p
}()

// Soblev99 stands in for the Sobol & Levitan 1999 function
// exp(Σ bj xj) - I0 + c0 with decaying exponents and a calibration
// constant c0.
var Soblev99 = register(&fn{
	name: "soblev99", dim: 20, relevant: relevantFirst(19, 20), thr: 2000,
	eval: func(x []float64) float64 {
		s := 0.0
		for j, b := range soblev99B {
			s += b * x[j]
		}
		return math.Exp(s) - soblev99I0 + 5100
	},
})

// oakoh04 coefficients, generated once from a fixed seed so that the
// function has the published structure a1'u + a2' sin(u) + a3' cos(u) +
// u' M u over near-Gaussian inputs with mixed effect sizes.
var oakA1, oakA2, oakA3 []float64
var oakM [][]float64

func init() {
	rng := rand.New(rand.NewSource(20040415)) // Oakley & O'Hagan 2004
	draw := func() []float64 {
		a := make([]float64, 15)
		for j := range a {
			switch {
			case j < 5:
				a[j] = 0.05 + 0.1*rng.Float64() // weak
			case j < 10:
				a[j] = 0.3 + 0.4*rng.Float64() // moderate
			default:
				a[j] = 0.8 + 0.6*rng.Float64() // strong
			}
			if rng.Intn(2) == 0 {
				a[j] = -a[j]
			}
		}
		return a
	}
	oakA1, oakA2, oakA3 = draw(), draw(), draw()
	oakM = make([][]float64, 15)
	for i := range oakM {
		row := make([]float64, 15)
		for j := range row {
			row[j] = 0.1 * rng.NormFloat64()
		}
		oakM[i] = row
	}
}

// gaussInv maps u in (0,1) to a standard normal quantile via the inverse
// error function, clipped to +-3.5 at the extremes.
func gaussInv(u float64) float64 {
	if u <= 0 {
		return -3.5
	}
	if u >= 1 {
		return 3.5
	}
	z := math.Sqrt2 * math.Erfinv(2*u-1)
	if z < -3.5 {
		return -3.5
	}
	if z > 3.5 {
		return 3.5
	}
	return z
}

// Oakoh04 stands in for the Oakley & O'Hagan 2004 function: fifteen
// Gaussian inputs, linear + trigonometric + quadratic-form response.
var Oakoh04 = register(&fn{
	name: "oakoh04", dim: 15, relevant: relevantAll(15), thr: 10,
	eval: func(x []float64) float64 {
		u := make([]float64, 15)
		for j := range u {
			u[j] = gaussInv(x[j])
		}
		s := 11.38 // calibration offset for the Table 1 share
		for j := 0; j < 15; j++ {
			s += oakA1[j]*u[j] + oakA2[j]*math.Sin(u[j]) + oakA3[j]*math.Cos(u[j])
		}
		for i := 0; i < 15; i++ {
			for j := 0; j < 15; j++ {
				s += u[i] * oakM[i][j] * u[j]
			}
		}
		return s
	},
})
