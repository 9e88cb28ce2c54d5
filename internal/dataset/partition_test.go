package dataset

import (
	"slices"
	"testing"
)

// partitionOracle is StablePartition's definition: the rows that go
// left, then the rows that go right, each side in input order.
func partitionOracle(seg []int, goLeft []bool) ([]int, int) {
	var left, right []int
	for _, r := range seg {
		if goLeft[r] {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	return append(left, right...), len(left)
}

// checkPartition runs StablePartition on a copy of seg placed between
// guard slots, with scratch exactly len(seg), and compares it with the
// oracle. The guards catch a write outside the segment.
func checkPartition(t *testing.T, seg []int, goLeft []bool) {
	t.Helper()
	const guard = -7
	buf := make([]int, len(seg)+4)
	for i := range buf {
		buf[i] = guard
	}
	copy(buf[2:], seg)
	got := buf[2 : 2+len(seg)]
	nl := StablePartition(got, goLeft, make([]int, len(seg)))
	want, wantNL := partitionOracle(seg, goLeft)
	if nl != wantNL || !slices.Equal(got, want) {
		t.Fatalf("StablePartition(%v) = %v, %d; want %v, %d", seg, got, nl, want, wantNL)
	}
	if buf[0] != guard || buf[1] != guard || buf[len(buf)-2] != guard || buf[len(buf)-1] != guard {
		t.Fatalf("StablePartition(%v) wrote outside the segment: %v", seg, buf)
	}
}

func TestStablePartition(t *testing.T) {
	sides := func(s string) []bool {
		b := make([]bool, len(s))
		for i, c := range s {
			b[i] = c == 'L'
		}
		return b
	}
	cases := []struct {
		name   string
		seg    []int
		goLeft []bool
	}{
		{"empty", nil, sides("LR")},
		{"one left", []int{1}, sides("RL")},
		{"one right", []int{0}, sides("RL")},
		{"all left", []int{3, 0, 2, 1}, sides("LLLL")},
		{"all right", []int{3, 0, 2, 1}, sides("RRRR")},
		{"alternating", []int{0, 1, 2, 3, 4, 5, 6, 7}, sides("LRLRLRLR")},
		{"alternating from right", []int{0, 1, 2, 3, 4, 5, 6}, sides("RLRLRLR")},
		{"bootstrap duplicates", []int{2, 2, 0, 4, 4, 4, 1, 0, 3}, sides("LRLRL")},
		{"sorted order subset", []int{5, 1, 4, 0}, sides("RLLRRL")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkPartition(t, c.seg, c.goLeft) })
	}
}

// FuzzStablePartition holds StablePartition to the oracle on segments
// over a universe of up to 16 rows, so row ids repeat as bootstrap
// copies do, with each row's side taken from a bit of sides.
func FuzzStablePartition(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint16(0x55))
	f.Add([]byte{3, 3, 3, 1, 1, 0, 15, 15}, uint16(0x8002))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint16(0xffff))
	f.Fuzz(func(t *testing.T, rows []byte, sides uint16) {
		goLeft := make([]bool, 16)
		for r := range goLeft {
			goLeft[r] = sides>>r&1 == 1
		}
		seg := make([]int, len(rows))
		for i, r := range rows {
			seg[i] = int(r % 16)
		}
		checkPartition(t, seg, goLeft)
	})
}
