package flattree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// AppendBinary appends the table's encoding to b, little-endian
// throughout: the tree count and the slot count as uint32s, each tree's
// premultiplied root as a uint32, then per slot its threshold key, its
// packed feature<<32 | 2*left word and its leaf value's bits as uint64s.
// The early-exit leaf bounds are not written: ReadTable rebuilds them
// from the leaves.
func (f *Table) AppendBinary(b []byte) []byte {
	b = slices.Grow(b, 8+4*len(f.Roots)+24*len(f.Value))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Roots)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Value)))
	for _, r := range f.Roots {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
	}
	for k, v := range f.Value {
		b = binary.LittleEndian.AppendUint64(b, f.node[2*k])
		b = binary.LittleEndian.AppendUint64(b, f.node[2*k+1])
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// ReadTable decodes a table AppendBinary wrote for points of the given
// width, bit for bit. It rejects every payload whose descent could index
// outside the table or a point, or never settle: the first root must be
// slot 0 and each tree owns the slots from its root to the next root;
// an internal slot's children must lie after it inside its tree, a
// self-looping slot must carry the leaf key, and no slot may name a
// feature at or past width. A descent therefore only moves forward
// within its tree and settles on a leaf.
func ReadTable(data []byte, width int) (*Table, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("flattree: %d-byte table header", len(data))
	}
	trees := int64(binary.LittleEndian.Uint32(data))
	slots := int64(binary.LittleEndian.Uint32(data[4:]))
	if slots >= 1<<30 || int64(len(data)) != 8+4*trees+24*slots {
		return nil, fmt.Errorf("flattree: %d bytes cannot hold %d trees of %d slots", len(data), trees, slots)
	}
	f := &Table{
		node:    make([]uint64, 2*slots),
		Value:   make([]float64, slots),
		Roots:   make([]int32, trees),
		leafMin: make([]float64, trees),
		leafMax: make([]float64, trees),
	}
	p := data[8:]
	for t := range f.Roots {
		r := int64(binary.LittleEndian.Uint32(p[4*t:]))
		if r%2 != 0 || r >= 2*slots || (t == 0 && r != 0) || (t > 0 && r <= int64(f.Roots[t-1])) {
			return nil, fmt.Errorf("flattree: tree %d has root %d", t, r)
		}
		f.Roots[t] = int32(r)
	}
	p = p[4*trees:]
	for k := range f.Value {
		f.node[2*k] = binary.LittleEndian.Uint64(p[24*k:])
		f.node[2*k+1] = binary.LittleEndian.Uint64(p[24*k+8:])
		f.Value[k] = math.Float64frombits(binary.LittleEndian.Uint64(p[24*k+16:]))
	}
	for t, root := range f.Roots {
		end := len(f.node)
		if t+1 < len(f.Roots) {
			end = int(f.Roots[t+1])
		}
		// Compile's bounds, over the same leaves in slot order: math.Min
		// and math.Max do not depend on the order they see them in.
		lo, hi := math.Inf(1), math.Inf(-1)
		for n := int(root); n < end; n += 2 {
			meta := f.node[n+1]
			left := int(uint32(meta))
			switch {
			case meta>>32 >= uint64(width):
				return nil, fmt.Errorf("flattree: slot %d reads feature %d of %d", n/2, meta>>32, width)
			case left == n:
				if f.node[n] != leafKey {
					return nil, fmt.Errorf("flattree: leaf slot %d lacks the leaf key", n/2)
				}
				lo, hi = math.Min(lo, f.Value[n>>1]), math.Max(hi, f.Value[n>>1])
			case left%2 != 0 || left <= n || left+2 >= end:
				return nil, fmt.Errorf("flattree: slot %d has children at %d and %d, not within slots %d..%d", n/2, left/2, left/2+1, n/2+1, end/2-1)
			}
		}
		f.leafMin[t], f.leafMax[t] = lo, hi
	}
	return f, nil
}
