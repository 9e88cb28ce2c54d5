package metamodel

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// slowModel burns a few cycles per point so parallelism and
// cancellation are observable.
type slowModel struct{}

func (slowModel) prob(x []float64) float64 {
	s := 0.0
	for i := 0; i < 50; i++ {
		s += math.Sin(x[0] + float64(i))
	}
	return math.Abs(math.Mod(s, 1))
}

func (m slowModel) PredictProbBatchInto(dst []float64, pts [][]float64) {
	for i, x := range pts {
		dst[i] = m.prob(x)
	}
}

func (m slowModel) PredictLabelBatchInto(dst []float64, pts [][]float64) {
	for i, x := range pts {
		dst[i] = 0
		if m.prob(x) > 0.5 {
			dst[i] = 1
		}
	}
}

func (slowModel) ApproxMemoryBytes() int64 { return 0 }

func randPoints(n, m int, rng *rand.Rand) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, m)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	return pts
}

// TestParallelMatchesSerial: at the GOMAXPROCS the test runs with (0)
// and at 1, 2 and 7, the chunk driver equals one whole-slice kernel
// call.
func TestParallelMatchesSerial(t *testing.T) {
	pts := randPoints(5000, 3, rand.New(rand.NewSource(1)))
	var m slowModel
	want := make([]float64, len(pts))
	m.PredictProbBatchInto(want, pts)
	for _, procs := range []int{0, 1, 2, 7} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got, err := predictChunks(context.Background(), pts, m.PredictProbBatchInto, nil)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("GOMAXPROCS=%d: point %d: %v != %v", procs, i, got[i], want[i])
				}
			}
		}()
	}
}

func TestBatchProgressCoversAllPoints(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	pts := randPoints(3000, 2, rand.New(rand.NewSource(2)))
	var mu sync.Mutex
	sum, max := 0, 0
	prev := 0
	_, err := PredictProbBatchCtx(context.Background(), slowModel{}, pts, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		if total != len(pts) {
			t.Errorf("total = %d, want %d", total, len(pts))
		}
		sum += done - prev
		prev = done
		if done > max {
			max = done
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if max != len(pts) {
		t.Errorf("final progress = %d, want %d", max, len(pts))
	}
}

func TestBatchCancellation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pts := randPoints(200000, 2, rand.New(rand.NewSource(3)))
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	out, err := PredictProbBatchCtx(ctx, slowModel{}, pts, func(done, total int) {
		once.Do(cancel) // cancel after the first chunk
	})
	if err == nil {
		t.Fatalf("cancelled batch returned no error (out len %d)", len(out))
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("cancelled batch returned a partial slice")
	}
}

func TestBatchEmptyInput(t *testing.T) {
	out, err := PredictProbBatchCtx(context.Background(), slowModel{}, nil, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
}

// chunkRecordingModel records the chunks the batch path hands it, so
// the dispatch itself is testable without a real flattened ensemble.
type chunkRecordingModel struct {
	mu     sync.Mutex
	chunks []int
}

func (m *chunkRecordingModel) PredictProbBatchInto(dst []float64, pts [][]float64) {
	m.record(len(pts))
	for i, x := range pts {
		dst[i] = x[0]
	}
}

func (m *chunkRecordingModel) PredictLabelBatchInto(dst []float64, pts [][]float64) {
	m.record(len(pts))
	for i, x := range pts {
		dst[i] = 1 - x[0]
	}
}

func (*chunkRecordingModel) ApproxMemoryBytes() int64 { return 0 }

func (m *chunkRecordingModel) record(n int) {
	m.mu.Lock()
	m.chunks = append(m.chunks, n)
	m.mu.Unlock()
}

// TestBatchModelDispatch asserts PredictProbBatchCtx/PredictLabelBatchCtx
// route every point through the model's kernel exactly once, in
// bounded chunks with the uneven tail intact, at any GOMAXPROCS.
func TestBatchModelDispatch(t *testing.T) {
	pts := randPoints(2*batchChunk+37, 2, rand.New(rand.NewSource(5)))
	for _, procs := range []int{1, 3} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			m := &chunkRecordingModel{}
			probs, err := PredictProbBatchCtx(context.Background(), m, pts, nil)
			if err != nil {
				t.Fatal(err)
			}
			labels, err := PredictLabelBatchCtx(context.Background(), m, pts, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range pts {
				if probs[i] != x[0] || labels[i] != 1-x[0] {
					t.Fatalf("GOMAXPROCS=%d: point %d misrouted: prob %v label %v", procs, i, probs[i], labels[i])
				}
			}
			total := 0
			for _, c := range m.chunks {
				if c < 1 || c > batchChunk {
					t.Fatalf("GOMAXPROCS=%d: kernel got a chunk of %d points (max %d)", procs, c, batchChunk)
				}
				total += c
			}
			if total != 2*len(pts) {
				t.Fatalf("GOMAXPROCS=%d: kernel saw %d points across both calls, want %d", procs, total, 2*len(pts))
			}
		}()
	}
}
