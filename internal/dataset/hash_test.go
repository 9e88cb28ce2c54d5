package dataset

import (
	"encoding/json"
	"testing"
)

func TestHashStableAndSensitive(t *testing.T) {
	d := MustNew([][]float64{{1, 2}, {3, 4}}, []float64{0, 1})
	if d.Hash() != d.Hash() {
		t.Fatalf("hash is not deterministic")
	}
	if d.Hash() != d.Clone().Hash() {
		t.Fatalf("clone hashes differently")
	}

	variants := []*Dataset{
		MustNew([][]float64{{1, 2}, {3, 5}}, []float64{0, 1}),       // one value changed
		MustNew([][]float64{{1, 2}, {3, 4}}, []float64{1, 1}),       // label changed
		MustNew([][]float64{{1, 2, 0}, {3, 4, 0}}, []float64{0, 1}), // extra column
		MustNew([][]float64{{1, 2}}, []float64{0}),                  // fewer rows
		{X: [][]float64{{1, 2}, {3, 4}}, Y: []float64{0, 1}, Discrete: []bool{true, false}},
	}
	seen := map[string]bool{d.Hash(): true}
	for i, v := range variants {
		h := v.Hash()
		if seen[h] {
			t.Errorf("variant %d collides with an earlier dataset", i)
		}
		seen[h] = true
	}
}

func TestDatasetJSONRoundTrip(t *testing.T) {
	d := &Dataset{
		X:        [][]float64{{0.25, 1}, {0.5, 0}},
		Y:        []float64{1, 0},
		Discrete: []bool{false, true},
	}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Dataset
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Hash() != d.Hash() {
		t.Fatalf("round trip changed content: %s vs %s", back.Hash(), d.Hash())
	}
}

func TestDatasetJSONRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"x": [[1,2],[3]], "y": [0,1]}`,              // ragged rows
		`{"x": [[1,2]], "y": [0,1]}`,                  // label count mismatch
		`{"x": [[1,2]], "y": [0], "discrete":[true]}`, // mask width mismatch
	}
	for i, c := range cases {
		var d Dataset
		if err := json.Unmarshal([]byte(c), &d); err == nil {
			t.Errorf("case %d: accepted malformed dataset %s", i, c)
		}
	}
}
