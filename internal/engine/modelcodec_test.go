package engine

import (
	"bytes"
	"context"
	"encoding"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/reds-go/reds/internal/funcs"
	"github.com/reds-go/reds/internal/metamodel"
	"github.com/reds-go/reds/internal/sample"
)

// specialPoints draws n points of width m and plants NaN, ±Inf and ±0
// coordinates in them.
func specialPoints(n, m int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, m)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
			if rng.Intn(4) == 0 {
				pts[i][j] = special[rng.Intn(len(special))]
			}
		}
	}
	return pts
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestModelCodecRoundTrip trains every family in every mode a variant
// can train it in, encodes the model as a checkpoint carries it and
// decodes it at the training width: the decoded model is the trained
// one, field for field, labels and scores points with NaN, ±Inf and ±0
// coordinates bit for bit as it does, and encodes to the same bytes.
func TestModelCodecRoundTrip(t *testing.T) {
	f, err := funcs.Get("borehole")
	if err != nil {
		t.Fatal(err)
	}
	train := funcs.Generate(f, 200, sample.LatinHypercube{}, rand.New(rand.NewSource(11)))
	pts := specialPoints(1000, train.M(), 12)
	for _, family := range []string{"rf", "xgb", "svm"} {
		for _, mode := range []struct{ tuned, binned bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
			if family == "svm" && mode.binned {
				continue // svm trains exact
			}
			t.Run(fmt.Sprintf("%s/tuned=%v/binned=%v", family, mode.tuned, mode.binned), func(t *testing.T) {
				m, err := trainerByName(family, train.M(), mode.tuned, mode.binned).Train(train, rand.New(rand.NewSource(13)))
				if err != nil {
					t.Fatal(err)
				}
				data, err := m.(encoding.BinaryMarshaler).MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				got, err := decodeModel(family, data, train.M())
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !reflect.DeepEqual(got, m) {
					t.Fatalf("decoded %T differs from the trained one", got)
				}
				for _, kernel := range []string{"prob", "label"} {
					want, have := make([]float64, len(pts)), make([]float64, len(pts))
					if kernel == "prob" {
						m.PredictProbBatchInto(want, pts)
						got.PredictProbBatchInto(have, pts)
					} else {
						m.PredictLabelBatchInto(want, pts)
						got.PredictLabelBatchInto(have, pts)
					}
					if !sameBits(have, want) {
						t.Fatalf("decoded model's %s batch differs from the trained one's", kernel)
					}
				}
				again, err := got.(encoding.BinaryMarshaler).MarshalBinary()
				if err != nil || !bytes.Equal(again, data) {
					t.Fatalf("re-encoding gave %d other bytes (err %v), want the %d decoded", len(again), err, len(data))
				}
			})
		}
	}
}

// FuzzDecodeModel: any bytes decode, for any family and width, to an
// error or to a model that scores and labels points of that width
// without panicking or hanging, and that encodes back to the very
// bytes it was decoded from.
func FuzzDecodeModel(f *testing.F) {
	f.Add(uint8(0), uint8(3), []byte{})
	f.Add(uint8(1), uint8(3), make([]byte, 16))
	f.Add(uint8(2), uint8(3), make([]byte, 24))
	families := []string{"rf", "xgb", "svm"}
	f.Fuzz(func(t *testing.T, family, width uint8, data []byte) {
		w := int(width%16) + 1
		fam := families[int(family)%len(families)]
		m, err := decodeModel(fam, data, w)
		if err != nil {
			return
		}
		again, err := m.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%s model re-encodes to %d other bytes (err %v)", fam, len(again), err)
		}
		pts := specialPoints(19, w, int64(len(data)))
		dst := make([]float64, len(pts))
		m.PredictProbBatchInto(dst, pts)
		m.PredictLabelBatchInto(dst, pts)
		for _, l := range dst {
			if l != 0 && l != 1 {
				t.Fatalf("%s model labels %v", fam, l)
			}
		}
	})
}

// bigModel is a model whose encoding is one byte over the checkpoint's
// per-model cap.
type bigModel struct{ metamodel.Model }

func (bigModel) MarshalBinary() ([]byte, error) { return make([]byte, checkpointModelBytes+1), nil }

// TestCheckpointRecorderModels: sibling variants that close one
// family's train stage together record one model, and none of them
// publishes a snapshot naming the family without it; a model over the
// cap keeps only its key; a resumed execution carries the inbound
// models forward unchanged and serves one only under its own key.
// Resuming a job from its first checkpoint trains nothing when the
// model is there and trains when only its key is, and both equal an
// uninterrupted run.
func TestCheckpointRecorderModels(t *testing.T) {
	d := testDataset(300, rand.New(rand.NewSource(27)))
	forest, err := trainerByName("rf", d.M(), false, false).Train(d, rand.New(rand.NewSource(28)))
	if err != nil {
		t.Fatal(err)
	}
	encoded, _ := forest.(encoding.BinaryMarshaler).MarshalBinary()
	var published []*Checkpoint
	rec := newCheckpointRecorder(nil, "h", newProgressSink(func(p Progress) {
		published = append(published, p.Checkpoint) // the sink serializes callbacks
	}))
	var wg sync.WaitGroup
	for _, sd := range []string{"prim", "bumping", "bi", "prim-bumping"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec.trainStageDone("rf", "m-rf", forest)
			rec.variantDone(VariantResult{Metamodel: "rf", SD: sd})
		}()
	}
	wg.Wait()
	rec.trainStageDone("xgb", "m-xgb", bigModel{})
	// The sink drops a snapshot that arrives after a newer one, so fewer
	// may be published than taken.
	if rec.seq != 6 {
		t.Fatalf("%d snapshots taken, want one per family and one per variant (6)", rec.seq)
	}
	for _, cp := range published {
		if art, named := cp.Models["rf"]; named && (art.Key != "m-rf" || !bytes.Equal(art.Data, encoded)) {
			t.Fatalf("snapshot %d names family rf as %q with %d of its %d bytes", cp.Seq, art.Key, len(art.Data), len(encoded))
		}
	}
	last := published[len(published)-1]
	if xgb := last.Models["xgb"]; last.Seq != 6 || xgb.Key != "m-xgb" || xgb.Data != nil {
		t.Fatalf("model over the cap recorded as key %q with %d bytes, want its key alone", xgb.Key, len(xgb.Data))
	}

	res := newCheckpointRecorder(last, "h", newProgressSink(nil))
	if got := res.resumeModel("rf", "m-rf"); len(got) == 0 || &got[0] != &last.Models["rf"].Data[0] {
		t.Fatalf("inbound model was copied or lost, not carried forward")
	}
	for _, c := range []struct{ family, key string }{{"rf", "m-rf|mode=binned"}, {"xgb", "m-xgb"}, {"svm", "m-rf"}} {
		if got := res.resumeModel(c.family, c.key); got != nil {
			t.Fatalf("%s under key %q resumed from %d bytes, want none", c.family, c.key, len(got))
		}
	}

	req := Request{Dataset: d, L: 800, Seed: 3, SD: []string{"prim", "bi"}}
	var first *Checkpoint
	fresh, err := NewLocalExecutor(LocalExecutorOptions{}).Execute(context.Background(), req, func(p Progress) {
		if first == nil && p.Checkpoint != nil {
			first = p.Checkpoint
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if first == nil || len(first.Variants) != 0 || len(first.Models["rf"].Data) == 0 {
		t.Fatalf("first checkpoint %+v, want the model and no variants", first)
	}
	keyOnly := *first
	keyOnly.Models = map[string]ModelArtifact{}
	for fam, art := range first.Models {
		keyOnly.Models[fam] = ModelArtifact{Key: art.Key}
	}
	for _, c := range []struct {
		name string
		cp   *Checkpoint
	}{{"model", first}, {"key only", &keyOnly}} {
		resumed := req
		resumed.Checkpoint = c.cp
		var spans []StageTiming
		res, err := NewLocalExecutor(LocalExecutorOptions{}).Execute(context.Background(), resumed, func(p Progress) { spans = p.Timings })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cpTrains, _ := countStages(c.cp.Timings)
		trains, _ := countStages(spans)
		if retrained := trains > cpTrains; retrained != (c.name == "key only") {
			t.Fatalf("%s: resume added %d train spans to the checkpoint's %d", c.name, trains-cpTrains, cpTrains)
		}
		if got, want := resultOutcome(t, res), resultOutcome(t, fresh); got != want {
			t.Fatalf("%s: resumed result differs from an uninterrupted run:\nresumed: %s\nfresh:   %s", c.name, got, want)
		}
	}
}
