package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/reds-go/reds/internal/engine/store"
)

// blockingStore holds the first checkpoint write until release closes,
// and logs every checkpoint write, result write and checkpoint delete
// in the order the store completes them.
type blockingStore struct {
	store.Store
	entered chan struct{} // closed when the first checkpoint write arrives
	release chan struct{}

	mu      sync.Mutex
	blocked bool
	ops     []string
}

func (s *blockingStore) log(op string) {
	s.mu.Lock()
	s.ops = append(s.ops, op)
	s.mu.Unlock()
}

func (s *blockingStore) done() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.ops)
}

func (s *blockingStore) PutCheckpoint(id string, raw json.RawMessage) error {
	op := "delete"
	if len(raw) > 0 {
		var cp Checkpoint
		if err := json.Unmarshal(raw, &cp); err != nil {
			return err
		}
		op = fmt.Sprintf("checkpoint %d", cp.Seq)
	}
	s.mu.Lock()
	first := !s.blocked
	s.blocked = true
	s.mu.Unlock()
	if first {
		close(s.entered)
		<-s.release
	}
	err := s.Store.PutCheckpoint(id, raw)
	s.log(op)
	return err
}

func (s *blockingStore) PutResult(id string, raw json.RawMessage) error {
	err := s.Store.PutResult(id, raw)
	s.log("result")
	return err
}

// threeCheckpoints reports checkpoints 1, 2 and 3 and returns a result.
// It reports 2 and 3 only once the store holds write 1, so both arrive
// while that write is blocked.
type threeCheckpoints struct{ firstWrite <-chan struct{} }

func (x threeCheckpoints) Execute(ctx context.Context, _ Request, onProgress func(Progress)) (*Result, error) {
	onProgress(Progress{Checkpoint: &Checkpoint{Seq: 1}})
	select {
	case <-x.firstWrite:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	onProgress(Progress{Checkpoint: &Checkpoint{Seq: 2}})
	onProgress(Progress{Checkpoint: &Checkpoint{Seq: 3}})
	return &Result{Best: VariantResult{Metamodel: "rf", SD: "prim"}}, nil
}

// TestCheckpointWriterKeepsNewestBeforeResult: checkpoints persist off
// the job's path. While write 1 is blocked, snapshots 2 and 3 arrive,
// the job finishes and OnDone fires. Snapshot 2 is superseded before
// its turn and never written; the store then sees checkpoint 3, the
// result and the checkpoint delete, in that order.
func TestCheckpointWriterKeepsNewestBeforeResult(t *testing.T) {
	st := &blockingStore{Store: store.NewMem(), entered: make(chan struct{}), release: make(chan struct{})}
	e := newTestEngine(t, Options{Workers: 1, Store: st, Executor: threeCheckpoints{firstWrite: st.entered}})
	defer e.Close()
	// Release write 1 on every path, or Close waits for it forever.
	var once sync.Once
	release := func() { once.Do(func() { close(st.release) }) }
	defer release()
	fired := make(chan struct{})
	id, err := e.SubmitWith(Request{Dataset: testDataset(20, rand.New(rand.NewSource(1)))},
		SubmitOptions{OnDone: func() { close(fired) }})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	select {
	case <-fired:
	case <-time.After(30 * time.Second):
		t.Fatal("OnDone did not fire while checkpoint write 1 was blocked")
	}
	if ops := st.done(); len(ops) != 0 {
		t.Fatalf("the store completed %v before write 1 was released", ops)
	}
	if snap, _ := e.Job(id); snap.Status != StatusDone {
		t.Fatalf("job is %s when OnDone fired, want done", snap.Status)
	}
	release()
	e.Close() // returns once the worker has finished the job's store writes
	want := []string{"checkpoint 1", "checkpoint 3", "result", "delete"}
	if got := st.done(); !slices.Equal(got, want) {
		t.Fatalf("store saw %v, want %v", got, want)
	}
}
