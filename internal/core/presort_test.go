package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/reds-go/reds/internal/dataset"
	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/prim"
	"github.com/reds-go/reds/internal/rf"
	"github.com/reds-go/reds/internal/sample"
)

// plainSampler hides the wrapped sampler's SampleOrdered, so core draws
// through Sample and the labeled set presorts on first use.
type plainSampler struct{ sample.Sampler }

// TestDerivedOrdersMatchRadix: a Latin hypercube label set arrives
// with the design's own orders; with those hidden it is radix-sorted.
// Both give the same points, labels and sorted orders, index for
// index, and REDS.Discover, which samples through the same helper,
// finds the same boxes.
func TestDerivedOrdersMatchRadix(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	train := funcs.Generate(funcs.Morris, 150, sample.LatinHypercube{}, rng)
	model, err := (&rf.Trainer{NTrees: 20}).Train(train, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, prob := range []bool{false, true} {
		label := func(smp sample.Sampler) *dataset.Dataset {
			d, err := PseudoLabel(context.Background(), model, smp, 4000, train.M(), 7, prob, metamodel.BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		derived, radix := label(sample.LatinHypercube{}), label(plainSampler{sample.LatinHypercube{}})
		if derived.Hash() != radix.Hash() {
			t.Fatalf("prob=%v: the two paths labeled different sets", prob)
		}
		got, want := derived.SortedOrders(), radix.SortedOrders()
		for j := range want {
			for k := range want[j] {
				if got[j][k] != want[j][k] {
					t.Fatalf("prob=%v: order %d holds row %d at position %d, the radix presort row %d", prob, j, got[j][k], k, want[j][k])
				}
			}
		}
	}

	boxes := func(smp sample.Sampler) string {
		r := &REDS{Metamodel: &rf.Trainer{NTrees: 20}, SD: &prim.Peeler{}, L: 4000, Sampler: smp}
		res, err := r.Discover(train, train, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(res.Boxes())
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if got, want := boxes(sample.LatinHypercube{}), boxes(plainSampler{sample.LatinHypercube{}}); got != want {
		t.Fatalf("REDS found other boxes with the derived orders:\n%s\nwith the radix presort:\n%s", got, want)
	}
}
