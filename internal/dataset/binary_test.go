package dataset

import (
	"encoding/binary"
	"math"
	"testing"
)

// sameBits fails unless a and b hold bit-identical data: shape, every
// float's IEEE-754 bits (so NaN payloads and −0 count), and the
// discrete mask including whether it is nil.
func sameBits(t *testing.T, a, b *Dataset) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() || len(a.Y) != len(b.Y) {
		t.Fatalf("shape %d×%d (%d labels) != %d×%d (%d labels)", a.N(), a.M(), len(a.Y), b.N(), b.M(), len(b.Y))
	}
	for i := range a.X {
		for j := range a.X[i] {
			if math.Float64bits(a.X[i][j]) != math.Float64bits(b.X[i][j]) {
				t.Fatalf("X[%d][%d]: %v != %v", i, j, a.X[i][j], b.X[i][j])
			}
		}
	}
	for i := range a.Y {
		if math.Float64bits(a.Y[i]) != math.Float64bits(b.Y[i]) {
			t.Fatalf("Y[%d]: %v != %v", i, a.Y[i], b.Y[i])
		}
	}
	if (a.Discrete == nil) != (b.Discrete == nil) || len(a.Discrete) != len(b.Discrete) {
		t.Fatalf("discrete mask %v != %v", a.Discrete, b.Discrete)
	}
	for j := range a.Discrete {
		if a.Discrete[j] != b.Discrete[j] {
			t.Fatalf("discrete mask %v != %v", a.Discrete, b.Discrete)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	negZero := math.Copysign(0, -1)
	special := MustNew(
		[][]float64{
			{math.NaN(), math.Inf(1), negZero},
			{nanPayload, math.Inf(-1), 1.5},
			{math.SmallestNonzeroFloat64, math.MaxFloat64, -2},
		},
		[]float64{math.NaN(), negZero, math.Inf(1)},
	)
	masked := special.Clone()
	masked.Discrete = []bool{true, false, true}

	cases := map[string]*Dataset{
		"special floats, nil mask": special,
		"special floats, mask":     masked,
		"zero rows, nil mask":      {},
		"zero rows, mask":          {X: [][]float64{}, Y: []float64{}, Discrete: []bool{false, true}},
		"one column":               MustNew([][]float64{{1}, {2}}, []float64{0, 1}),
	}
	for name, d := range cases {
		t.Run(name, func(t *testing.T) {
			raw, err := d.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			if len(raw) != d.BinarySize() {
				t.Fatalf("encoded %d bytes, BinarySize says %d", len(raw), d.BinarySize())
			}
			var got Dataset
			if err := got.UnmarshalBinary(raw); err != nil {
				t.Fatalf("UnmarshalBinary: %v", err)
			}
			sameBits(t, d, &got)
			if got.Hash() != d.Hash() {
				t.Fatalf("hash changed across the round trip")
			}
			// Rows are capacity-limited views: growing one must not
			// overwrite its neighbour in the shared allocation.
			if got.N() > 1 {
				_ = append(got.X[0], 42)
				sameBits(t, d, &got)
			}
		})
	}
}

// TestUnmarshalBinaryResetsViews: decoding into a receiver whose lazy
// views were already built must not leave the old views behind.
func TestUnmarshalBinaryResetsViews(t *testing.T) {
	d := MustNew([][]float64{{3}, {1}, {2}}, []float64{0, 1, 0})
	_ = d.Columns()
	raw, err := MustNew([][]float64{{7, 8}}, []float64{1}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if cols := d.Columns(); len(cols) != 2 || cols[1][0] != 8 {
		t.Fatalf("stale columnar view after decode: %v", cols)
	}
}

func TestMarshalBinaryRejectsMalformed(t *testing.T) {
	cases := map[string]*Dataset{
		"ragged rows":   {X: [][]float64{{1, 2}, {3}}, Y: []float64{0, 1}},
		"label count":   {X: [][]float64{{1}, {2}}, Y: []float64{0}},
		"mask too long": {X: [][]float64{{1}}, Y: []float64{0}, Discrete: []bool{true, false}},
	}
	for name, d := range cases {
		if _, err := d.MarshalBinary(); err == nil {
			t.Errorf("%s: MarshalBinary accepted a malformed dataset", name)
		}
	}
}

// header builds a raw binary header, for payloads MarshalBinary would
// never produce.
func header(version, mask byte, n, m uint64) []byte {
	b := []byte{version, mask}
	b = binary.LittleEndian.AppendUint64(b, n)
	return binary.LittleEndian.AppendUint64(b, m)
}

func TestUnmarshalBinaryRejectsMalformed(t *testing.T) {
	good, err := MustNew([][]float64{{1, 2}, {3, 4}}, []float64{0, 1}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	masked := MustNew([][]float64{{1, 2}}, []float64{1})
	masked.Discrete = []bool{true, false}
	goodMask, err := masked.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	badEntry := append([]byte(nil), goodMask...)
	badEntry[binaryHeaderLen] = 2
	badFlag := append([]byte(nil), good...)
	badFlag[1] = 2
	badVersion := append([]byte(nil), good...)
	badVersion[0] = 9

	cases := map[string][]byte{
		"empty":          nil,
		"short header":   good[:binaryHeaderLen-1],
		"truncated body": good[:len(good)-1],
		"truncated word": good[:len(good)-8],
		"trailing byte":  append(append([]byte(nil), good...), 0),
		"trailing word":  append(append([]byte(nil), good...), make([]byte, 8)...),
		// N·(M+1) wraps around uint64 to exactly the payload's word count.
		"N×M wraps to zero":     header(1, 0, 1<<63, 1),
		"N×M wraps to payload":  append(header(1, 0, 1<<63+1, 1), make([]byte, 16)...),
		"M+1 overflows":         append(header(1, 0, 1, math.MaxUint64), make([]byte, 16)...),
		"N exceeds the payload": append(header(1, 0, 1000, 3), make([]byte, 32)...),
		"M exceeds the payload": append(header(1, 0, 1, 1000), make([]byte, 32)...),
		"mask exceeds payload":  append(header(1, 1, 0, 1<<40), 0, 1),
		"bad mask flag":         badFlag,
		"bad mask entry":        badEntry,
		"unknown version":       badVersion,
	}
	for name, raw := range cases {
		var d Dataset
		if err := d.UnmarshalBinary(raw); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted %d bytes as a %d×%d dataset", name, len(raw), d.N(), d.M())
		}
	}
}

// FuzzUnmarshalBinary: decoding arbitrary bytes must never panic, and
// whatever decodes must re-encode and decode again to the same data.
func FuzzUnmarshalBinary(f *testing.F) {
	masked := MustNew([][]float64{{0.5, math.NaN()}, {math.Inf(-1), 2}}, []float64{1, 0})
	masked.Discrete = []bool{false, true}
	for _, d := range []*Dataset{
		masked,
		MustNew([][]float64{{1}, {2}, {3}}, []float64{0, 1, 0}),
		{},
	} {
		raw, err := d.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add(header(1, 0, 1<<62, 1<<62))
	f.Add(header(1, 1, 0, 3))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var d Dataset
		if err := d.UnmarshalBinary(raw); err != nil {
			return
		}
		again, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded dataset does not re-encode: %v", err)
		}
		if len(again) != d.BinarySize() {
			t.Fatalf("re-encoded %d bytes, BinarySize says %d", len(again), d.BinarySize())
		}
		var back Dataset
		if err := back.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoded dataset does not decode: %v", err)
		}
		sameBits(t, &d, &back)
	})
}
