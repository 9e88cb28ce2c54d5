package dataset

// Hist builds the all-feature bin histograms behind histogram-binned
// tree growth, over one Bins. Every dataset row r contributes a pair of
// values, pairs[2r] and pairs[2r+1] — (1, y) for a forest's count and
// label sum, (grad, hess) for boosting — and a histogram holds, for
// every feature f and bin c, the sums of the pairs of the rows coded c,
// at h[f·stride + 2c] and h[f·stride + 2c + 1].
//
// A node's children take the sibling step (Children): the smaller
// child's histogram is filled from its rows and the larger child's is
// the parent's minus it, the histogram subtraction of LightGBM (Ke et
// al., NeurIPS 2017). Histograms are recycled through a free list, so a
// Hist serves one goroutine; the pairs are read, never written, and may
// change between fills.
type Hist struct {
	*Bins
	pairs  []float64
	stride int
	free   [][]float64
}

// NewHist returns a histogram builder over b for the given per-row
// pairs, indexed by dataset row.
func (b *Bins) NewHist(pairs []float64) *Hist {
	widest := 1
	for j := range b.edges {
		widest = max(widest, b.NumBins(j))
	}
	return &Hist{Bins: b, pairs: pairs, stride: 2 * widest}
}

// Stride is the number of slots per feature in a histogram: two per bin
// of the widest feature.
func (h *Hist) Stride() int { return h.stride }

// Feature returns feature f's cells of hist, two per bin.
func (h *Hist) Feature(hist []float64, f int) []float64 {
	at := f * h.stride
	return hist[at : at+2*h.NumBins(f)]
}

// Get returns a zeroed histogram, recycled when one was Put back.
func (h *Hist) Get() []float64 {
	if k := len(h.free); k > 0 {
		hist := h.free[k-1]
		h.free = h.free[:k-1]
		clear(hist)
		return hist
	}
	return make([]float64, len(h.codes)*h.stride)
}

// Put returns hist to the free list; a nil hist is ignored.
func (h *Hist) Put(hist []float64) {
	if hist != nil {
		h.free = append(h.free, hist)
	}
}

// Fill adds the pairs of rows (dataset row ids, repeats counted) to
// every feature's cells of hist. Rows go in the outer loop, so each cell
// sums its rows in their order in rows.
func (h *Hist) Fill(hist []float64, rows []int) {
	stride, pairs := h.stride, h.pairs
	for _, r := range rows {
		a, v := pairs[2*r], pairs[2*r+1]
		for f, code := range h.codes {
			c := f*stride + 2*int(code[r])
			hist[c] += a
			hist[c+1] += v
		}
	}
}

// Children derives the histograms of a node's children from parent, the
// histogram of rows, after a split that sends rows[:mid] left and
// rows[mid:] right. A child that needs no histogram gets nil. When both
// do, the smaller one is filled from its rows and the larger one is
// parent minus it, computed in place; otherwise parent is refilled for
// the one child that needs it, or Put back. Either way parent is
// consumed.
func (h *Hist) Children(rows []int, mid int, needL, needR bool, parent []float64) (l, r []float64) {
	switch {
	case needL && needR:
		small := h.Get()
		if mid <= len(rows)-mid {
			h.Fill(small, rows[:mid])
			l, r = small, parent
		} else {
			h.Fill(small, rows[mid:])
			l, r = parent, small
		}
		for i, v := range small {
			parent[i] -= v
		}
	case needL:
		clear(parent)
		h.Fill(parent, rows[:mid])
		l = parent
	case needR:
		clear(parent)
		h.Fill(parent, rows[mid:])
		r = parent
	default:
		h.Put(parent)
	}
	return l, r
}
