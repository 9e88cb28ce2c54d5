package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The binary layout of a Dataset (all integers little-endian):
//
//	byte     format version (1)
//	byte     mask flag: 0 = nil Discrete mask, 1 = mask present
//	uint64   N, the number of rows
//	uint64   M, the number of inputs (for N = 0, the mask's length)
//	M bytes  the Discrete mask, one 0/1 byte per input (mask flag 1 only)
//	N·M      float64 bits of X, row-major
//	N        float64 bits of Y
//
// Floats travel as their IEEE-754 bits (as in Hash), so NaN payloads,
// ±Inf and −0 survive a round trip exactly — which JSON cannot do.
const (
	binaryVersion   = 1
	binaryHeaderLen = 2 + 8 + 8
)

// BinarySize returns the length of the dataset's MarshalBinary encoding.
func (d *Dataset) BinarySize() int {
	n, m := d.N(), d.binaryWidth()
	size := binaryHeaderLen + 8*n*(m+1)
	if d.Discrete != nil {
		size += m
	}
	return size
}

// binaryWidth is the M the header records: the row width, or for a
// dataset without rows the mask's length, so an empty dataset keeps its
// mask through a round trip.
func (d *Dataset) binaryWidth() int {
	if d.N() == 0 {
		return len(d.Discrete)
	}
	return d.M()
}

// MarshalBinary encodes the dataset in the layout above. It fails on a
// malformed dataset: ragged rows, a label count other than N, or a
// discrete mask whose length is not M.
func (d *Dataset) MarshalBinary() ([]byte, error) {
	n, m := d.N(), d.binaryWidth()
	if len(d.Y) != n {
		return nil, fmt.Errorf("dataset: %d points but %d labels", n, len(d.Y))
	}
	if d.Discrete != nil && len(d.Discrete) != m {
		return nil, fmt.Errorf("dataset: discrete mask has %d entries, want %d", len(d.Discrete), m)
	}
	buf := make([]byte, binaryHeaderLen, d.BinarySize())
	buf[0] = binaryVersion
	if d.Discrete != nil {
		buf[1] = 1
	}
	binary.LittleEndian.PutUint64(buf[2:], uint64(n))
	binary.LittleEndian.PutUint64(buf[10:], uint64(m))
	for _, b := range d.Discrete {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	for i, row := range d.X {
		if len(row) != m {
			return nil, fmt.Errorf("dataset: row %d has %d columns, want %d", i, len(row), m)
		}
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for _, v := range d.Y {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// UnmarshalBinary decodes the layout written by MarshalBinary. The
// payload length must match the header exactly; any malformed input is
// an error, never a panic. Decoded rows (and the labels) are views into
// one flat allocation.
func (d *Dataset) UnmarshalBinary(data []byte) error {
	if len(data) < binaryHeaderLen {
		return fmt.Errorf("dataset: binary payload of %d bytes is shorter than its %d-byte header", len(data), binaryHeaderLen)
	}
	if data[0] != binaryVersion {
		return fmt.Errorf("dataset: unknown binary format version %d", data[0])
	}
	hasMask := data[1]
	if hasMask > 1 {
		return fmt.Errorf("dataset: bad discrete mask flag %d", hasMask)
	}
	n := binary.LittleEndian.Uint64(data[2:])
	m := binary.LittleEndian.Uint64(data[10:])
	rest := data[binaryHeaderLen:]

	var mask []bool
	if hasMask == 1 {
		if m > uint64(len(rest)) {
			return errors.New("dataset: discrete mask exceeds the binary payload")
		}
		mask = make([]bool, m)
		for j, b := range rest[:m] {
			if b > 1 {
				return fmt.Errorf("dataset: discrete mask entry %d is %d, want 0 or 1", j, b)
			}
			mask[j] = b == 1
		}
		rest = rest[m:]
	}
	// The float section holds N·(M+1) words: check that product against
	// the payload without overflowing it.
	if len(rest)%8 != 0 {
		return fmt.Errorf("dataset: float section of %d bytes is not whole words", len(rest))
	}
	words := uint64(len(rest) / 8)
	if n > 0 && (m >= words || m+1 > words/n) {
		return fmt.Errorf("dataset: %d×%d header exceeds the %d-word payload", n, m, words)
	}
	if n*(m+1) != words {
		return fmt.Errorf("dataset: %d×%d header does not match the %d-word payload", n, m, words)
	}
	if n == 0 {
		m = uint64(len(mask))
	}

	rows, width := int(n), int(m)
	flat := make([]float64, rows*(width+1))
	for k := range flat {
		flat[k] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*k:]))
	}
	x := make([][]float64, rows)
	for i := range x {
		x[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	// Assign field-wise, as UnmarshalJSON does: the lazy views must not
	// survive a decode into a reused receiver.
	d.X, d.Y, d.Discrete = x, flat[rows*width:], mask
	d.invalidate()
	return nil
}
