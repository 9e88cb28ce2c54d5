// Package sample implements the experiment designs of Section 8.5 of the
// paper: Latin hypercube sampling, the Halton quasi-random sequence, plain
// uniform sampling, the logit-normal design of the semi-supervised
// experiments (Section 9.4), and the mixed continuous/discrete design of
// Section 9.1.2. All samplers produce points in the unit cube [0,1]^M;
// simulation models scale to their native ranges internally.
package sample

import (
	"math"
	"math/rand"
)

// Sampler produces n points in [0,1]^dim.
type Sampler interface {
	// Sample returns n points of dimension dim. Implementations must be
	// deterministic given the provided RNG state.
	Sample(n, dim int, rng *rand.Rand) [][]float64
}

// Uniform samples points i.i.d. uniformly from the unit cube ("brute force"
// random sampling in the paper's words).
type Uniform struct{}

// Sample implements Sampler.
func (Uniform) Sample(n, dim int, rng *rand.Rand) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.Float64()
		}
		pts[i] = row
	}
	return pts
}

// LatinHypercube implements Latin hypercube sampling: each dimension is
// divided into n equal strata, each stratum receives exactly one point, and
// strata are matched across dimensions by independent random permutations.
type LatinHypercube struct{}

// Sample implements Sampler. The returned rows are views into one flat
// n×dim allocation: at the L = 10^4-10^5 points REDS pseudo-labels,
// per-row allocations dominate the sampling stage's cost (L allocs, L
// pointer-chased rows for the GC to trace and the predictor to miss);
// the flat backing cuts that to two allocations and keeps consecutive
// rows contiguous for the batch-inference kernels that stream them.
// The RNG draw order is unchanged, so a given seed yields the exact
// design it always did.
func (LatinHypercube) Sample(n, dim int, rng *rand.Rand) [][]float64 {
	pts, _ := latinHypercube(n, dim, rng, false)
	return pts
}

// SampleOrdered draws Sample's points, with the same draws in the same
// order, and also returns each column's ascending order: ords[j][s] is
// the row whose column-j point lies in stratum s, the inverse of the
// column's stratum permutation. Rounding is monotone, so the order
// never descends, but a point rounded up onto its stratum's upper edge
// can tie the next stratum's point, in either row order. The orders
// are therefore candidates, which dataset.NewPresorted checks.
func (LatinHypercube) SampleOrdered(n, dim int, rng *rand.Rand) (pts [][]float64, ords [][]int) {
	return latinHypercube(n, dim, rng, true)
}

// latinHypercube is the loop of Sample and SampleOrdered; ordered
// makes it fill the orders too.
func latinHypercube(n, dim int, rng *rand.Rand, ordered bool) ([][]float64, [][]int) {
	flat := make([]float64, n*dim)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	var ords [][]int
	if ordered {
		backing := make([]int, n*dim)
		ords = make([][]int, dim)
		for j := range ords {
			ords[j] = backing[j*n : (j+1)*n : (j+1)*n]
		}
	}
	for j := 0; j < dim; j++ {
		perm := rng.Perm(n)
		for i, s := range perm {
			pts[i][j] = (float64(s) + rng.Float64()) / float64(n)
			if ordered {
				ords[j][s] = i
			}
		}
	}
	return pts, ords
}

// HaltonMaxDim is the widest design Halton supports: one prime base per
// input.
const HaltonMaxDim = 100

// primes are the Halton bases, the first HaltonMaxDim primes.
var primes = []int{
	2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
	71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
	151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
	233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311, 313,
	317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409,
	419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499,
	503, 509, 521, 523, 541,
}

// Halton generates the quasi-random Halton sequence (radical inverse in the
// first M prime bases). A random start offset derived from the RNG makes
// repeated experiments use different stretches of the sequence while
// remaining deterministic for a given seed, mirroring how the paper's
// repeated "dsgc" experiments obtain distinct designs.
type Halton struct {
	// Leap skips elements to decorrelate high dimensions; 1 (or 0) means
	// the plain sequence.
	Leap int
}

// radicalInverse returns the radical inverse of i in the given base.
func radicalInverse(i, base int) float64 {
	f := 1.0
	r := 0.0
	for i > 0 {
		f /= float64(base)
		r += f * float64(i%base)
		i /= base
	}
	return r
}

// Sample implements Sampler.
func (h Halton) Sample(n, dim int, rng *rand.Rand) [][]float64 {
	if dim > HaltonMaxDim {
		panic("sample: Halton supports at most 100 dimensions")
	}
	leap := h.Leap
	if leap < 1 {
		leap = 1
	}
	start := 1 + rng.Intn(1<<20)
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dim)
		idx := start + i*leap
		for j := 0; j < dim; j++ {
			row[j] = radicalInverse(idx, primes[j])
		}
		pts[i] = row
	}
	return pts
}

// LogitNormal samples each input i.i.d. from a logit-normal distribution
// with the given location Mu and scale Sigma: x = 1/(1+exp(-(mu+sigma*z))),
// z ~ N(0,1). This is the non-uniform design of the semi-supervised
// experiments (Section 9.4, mu=0, sigma=1).
type LogitNormal struct {
	Mu    float64
	Sigma float64
}

// Sample implements Sampler.
func (l LogitNormal) Sample(n, dim int, rng *rand.Rand) [][]float64 {
	sigma := l.Sigma
	if sigma == 0 {
		sigma = 1
	}
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, dim)
		for j := range row {
			z := l.Mu + sigma*rng.NormFloat64()
			row[j] = 1 / (1 + math.Exp(-z))
		}
		pts[i] = row
	}
	return pts
}

// MixedLevels are the values used for discrete inputs in the mixed-input
// experiments of Section 9.1.2.
var MixedLevels = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// Mixed wraps a base sampler and replaces every even-indexed input
// (0-based dimensions 1, 3, 5, ... — the paper's "even inputs" a2, a4, ...)
// with values drawn i.i.d. from MixedLevels.
type Mixed struct {
	Base Sampler
}

// Sample implements Sampler.
func (m Mixed) Sample(n, dim int, rng *rand.Rand) [][]float64 {
	base := m.Base
	if base == nil {
		base = LatinHypercube{}
	}
	pts := base.Sample(n, dim, rng)
	for _, row := range pts {
		for j := 1; j < dim; j += 2 {
			row[j] = MixedLevels[rng.Intn(len(MixedLevels))]
		}
	}
	return pts
}

// DiscreteMask returns the discrete-input mask corresponding to Mixed
// sampling over dim inputs: true at the even inputs a2, a4, ...
// (0-based odd indices).
func DiscreteMask(dim int) []bool {
	mask := make([]bool, dim)
	for j := 1; j < dim; j += 2 {
		mask[j] = true
	}
	return mask
}
