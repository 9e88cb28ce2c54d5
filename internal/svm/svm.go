// Package svm implements a C-SVM classifier with an RBF kernel, trained by
// sequential minimal optimization (SMO) — the "s" metamodel of the paper.
// The decision boundary f(x) = Σ αᵢ yᵢ K(xᵢ,x) − ρ labels points by sign;
// a logistic squash of the decision value provides a probability surrogate
// (the paper only uses hard labels for SVM-based REDS).
package svm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/metamodel"
)

// Trainer configures SVM training. Zero-value fields take defaults:
// C = 1, Gamma = 0 meaning the "scale" heuristic 1/(M·Var(X)),
// Tol = 1e-3, MaxPasses = 5.
type Trainer struct {
	// C is the soft-margin penalty.
	C float64
	// Gamma is the RBF width; 0 selects 1/(M·Var(X)).
	Gamma float64
	// Tol is the KKT violation tolerance.
	Tol float64
	// MaxPasses bounds the number of full passes without any update
	// before SMO stops.
	MaxPasses int
}

// Name implements metamodel.Trainer.
func (t *Trainer) Name() string { return "svm" }

// Model is a trained SVM with decision function
// f(x) = −b + Σ coefᵢ·exp(−γ‖svᵢ − x‖²). Its support vectors are one
// row-major matrix, which the blocked batch kernel scans. A fit that
// collapsed to one class (a single-class training set, or every α at
// zero) has no support vectors and an infinite bias: b = −Inf labels
// every point 1 and b = +Inf labels every point 0, at probability
// exactly 1 or 0.
type Model struct {
	sv    []float64 // support vectors, row-major, dim values per row
	dim   int
	coef  []float64 // αᵢ yᵢ of the support vectors
	b     float64
	gamma float64
}

// svBlock is the number of support vectors evaluated per block: a
// block of 64 vectors of typical width stays L1-resident while the
// chunk's points stream past it.
const svBlock = 64

// decisionBatchInto fills dst with the decision value f(x) of every
// point by blocked kernel evaluation: support vectors are processed in
// blocks that stay cache-resident across the chunk, accumulating onto
// dst in ascending support-vector order, so each point's sum is the
// same floating-point sequence whatever the chunking.
func (m *Model) decisionBatchInto(dst []float64, pts [][]float64) {
	for i := range dst {
		dst[i] = -m.b
	}
	dim, gamma := m.dim, m.gamma
	for lo := 0; lo < len(m.coef); lo += svBlock {
		hi := min(lo+svBlock, len(m.coef))
		block := m.sv[lo*dim : hi*dim]
		coef := m.coef[lo:hi]
		for i, x := range pts {
			s := dst[i]
			off := 0
			for _, c := range coef {
				row := block[off : off+dim]
				d := 0.0
				for j, v := range row {
					diff := v - x[j]
					d += diff * diff
				}
				s += c * math.Exp(-gamma*d)
				off += dim
			}
			dst[i] = s
		}
	}
}

// PredictProbBatchInto implements metamodel.Model with a fixed logistic
// link on the decision value; adequate because REDS uses SVM only
// through hard labels.
func (m *Model) PredictProbBatchInto(dst []float64, pts [][]float64) {
	m.decisionBatchInto(dst, pts)
	for i, s := range dst {
		dst[i] = 1 / (1 + math.Exp(-2*s))
	}
}

// PredictLabelBatchInto implements metamodel.Model: 1 iff the decision
// value is positive (bnd = 0 in Algorithm 4).
func (m *Model) PredictLabelBatchInto(dst []float64, pts [][]float64) {
	m.decisionBatchInto(dst, pts)
	for i, s := range dst {
		if s > 0 {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
}

// NumSupport returns the number of support vectors.
func (m *Model) NumSupport() int { return len(m.coef) }

// ApproxMemoryBytes implements metamodel.Model: the support-vector
// matrix and the coefficients, 8 bytes per value.
func (m *Model) ApproxMemoryBytes() int64 {
	return int64(len(m.sv)+len(m.coef)) * 8
}

func rbf(a, b []float64, gamma float64) float64 {
	d := 0.0
	for j := range a {
		diff := a[j] - b[j]
		d += diff * diff
	}
	return math.Exp(-gamma * d)
}

// Train implements metamodel.Trainer using Platt's simplified SMO with
// randomized second-index selection.
func (t *Trainer) Train(d *dataset.Dataset, rng *rand.Rand) (metamodel.Model, error) {
	n := d.N()
	if n < 2 {
		return nil, fmt.Errorf("svm: need at least 2 examples, got %d", n)
	}
	c := t.C
	if c == 0 {
		c = 1
	}
	tol := t.Tol
	if tol == 0 {
		tol = 1e-3
	}
	maxPasses := t.MaxPasses
	if maxPasses == 0 {
		maxPasses = 5
	}
	gamma := t.Gamma
	if gamma == 0 {
		gamma = scaleGamma(d)
	}

	if single, cls := singleClass(d.Y); single {
		return constant(d.M(), cls), nil
	}
	// Labels in {-1, +1}.
	y := make([]float64, n)
	for i, v := range d.Y {
		if v >= 0.5 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}

	// Kernel row cache: full matrix for small n, LRU-ish map otherwise.
	cache := newKernelCache(d.X, gamma, n)

	alpha := make([]float64, n)
	b := 0.0
	// f(i) without the bias, maintained incrementally would be complex;
	// simplified SMO recomputes errors on demand via cached rows.
	errF := func(i int) float64 {
		s := -b
		ki := cache.row(i)
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * y[j] * ki[j]
			}
		}
		return s - y[i]
	}

	passes := 0
	iter := 0
	maxIter := 200 * n
	for passes < maxPasses && iter < maxIter {
		changed := 0
		for i := 0; i < n; i++ {
			iter++
			ei := errF(i)
			if !((y[i]*ei < -tol && alpha[i] < c) || (y[i]*ei > tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := errF(j)
			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(c, c+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-c)
				hi = math.Min(c, ai+aj)
			}
			if lo == hi {
				continue
			}
			kii := cache.row(i)[i]
			kjj := cache.row(j)[j]
			kij := cache.row(i)[j]
			eta := 2*kij - kii - kjj
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-7 {
				continue
			}
			aiNew := ai + y[i]*y[j]*(aj-ajNew)
			b1 := b + ei + y[i]*(aiNew-ai)*kii + y[j]*(ajNew-aj)*kij
			b2 := b + ej + y[i]*(aiNew-ai)*kij + y[j]*(ajNew-aj)*kjj
			switch {
			case aiNew > 0 && aiNew < c:
				b = b1
			case ajNew > 0 && ajNew < c:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			alpha[i], alpha[j] = aiNew, ajNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	model := &Model{dim: d.M(), b: b, gamma: gamma}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-9 {
			model.sv = append(model.sv, d.X[i]...)
			model.coef = append(model.coef, alpha[i]*y[i])
		}
	}
	if len(model.coef) == 0 {
		return constant(d.M(), majority(d.Y)), nil
	}
	return model, nil
}

// constant is the collapsed model that labels every point cls.
func constant(dim int, cls float64) *Model {
	b := math.Inf(1)
	if cls == 1 {
		b = math.Inf(-1)
	}
	return &Model{dim: dim, b: b}
}

// MarshalBinary implements encoding.BinaryMarshaler, little-endian
// throughout: the width and the support-vector count as uint32s, then
// the bits of the bias, gamma, every coefficient and the support-vector
// matrix row by row as uint64s.
func (m *Model) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 24+8*(len(m.coef)+len(m.sv)))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.dim))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.coef)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.b))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.gamma))
	for _, v := range m.coef {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	for _, v := range m.sv {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b, nil
}

// UnmarshalModel decodes a model MarshalBinary wrote for points of the
// given width, bit for bit. It rejects a model of another width and a
// payload whose matrix is not width × support vectors.
func UnmarshalModel(data []byte, width int) (*Model, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("svm: %d-byte model", len(data))
	}
	dim := int64(binary.LittleEndian.Uint32(data))
	nsv := int64(binary.LittleEndian.Uint32(data[4:]))
	if dim != int64(width) || int64(len(data)) != 24+8*nsv*(1+dim) {
		return nil, fmt.Errorf("svm: %d bytes do not hold %d support vectors of width %d (training width %d)", len(data), nsv, dim, width)
	}
	vals := make([]float64, (len(data)-24)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[24+8*i:]))
	}
	return &Model{
		dim:   int(dim),
		b:     math.Float64frombits(binary.LittleEndian.Uint64(data[8:])),
		gamma: math.Float64frombits(binary.LittleEndian.Uint64(data[16:])),
		coef:  vals[:nsv:nsv],
		sv:    vals[nsv:],
	}, nil
}

// scaleGamma returns the 1/(M·Var) heuristic over all inputs pooled.
func scaleGamma(d *dataset.Dataset) float64 {
	n, m := d.N(), d.M()
	var sum, sq float64
	cnt := float64(n * m)
	for _, row := range d.X {
		for _, v := range row {
			sum += v
			sq += v * v
		}
	}
	mean := sum / cnt
	variance := sq/cnt - mean*mean
	if variance < 1e-12 {
		variance = 1e-12
	}
	return 1 / (float64(m) * variance)
}

func singleClass(y []float64) (bool, float64) {
	first := y[0] >= 0.5
	for _, v := range y[1:] {
		if (v >= 0.5) != first {
			return false, 0
		}
	}
	if first {
		return true, 1
	}
	return true, 0
}

func majority(y []float64) float64 {
	pos := 0
	for _, v := range y {
		if v >= 0.5 {
			pos++
		}
	}
	if 2*pos > len(y) {
		return 1
	}
	return 0
}

// kernelCache caches kernel matrix rows. For n below the full-matrix
// budget it precomputes everything; beyond that it keeps a bounded map of
// recently used rows.
type kernelCache struct {
	x     [][]float64
	gamma float64
	full  [][]float64
	part  map[int][]float64
	order []int
	limit int
}

func newKernelCache(x [][]float64, gamma float64, n int) *kernelCache {
	c := &kernelCache{x: x, gamma: gamma}
	if n <= 1200 {
		c.full = make([][]float64, n)
	} else {
		c.part = make(map[int][]float64, 600)
		c.limit = 600
	}
	return c
}

func (c *kernelCache) row(i int) []float64 {
	if c.full != nil {
		if c.full[i] == nil {
			c.full[i] = c.compute(i)
		}
		return c.full[i]
	}
	if r, ok := c.part[i]; ok {
		return r
	}
	r := c.compute(i)
	if len(c.order) >= c.limit {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.part, evict)
	}
	c.part[i] = r
	c.order = append(c.order, i)
	return r
}

func (c *kernelCache) compute(i int) []float64 {
	r := make([]float64, len(c.x))
	for j := range c.x {
		r[j] = rbf(c.x[i], c.x[j], c.gamma)
	}
	return r
}

// TunedTrainer returns a small C x gamma grid around the scale heuristic,
// mirroring the default caret tuning for RBF SVMs.
func TunedTrainer() metamodel.Trainer {
	return &metamodel.Tuned{Family: "svm", Grid: []metamodel.Trainer{
		&Trainer{C: 1},
		&Trainer{C: 10},
		&Trainer{C: 100},
	}}
}
