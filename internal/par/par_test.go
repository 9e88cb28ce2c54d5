package par

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCallsEveryIndexOnce: every index in [0, n) is called exactly
// once, and w stays inside the pool.
func TestForCallsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 1000} {
			pool := max(min(workers, n), 1)
			calls := make([]atomic.Int32, n)
			For(workers, n, func(w, i int) {
				if w < 0 || w >= pool {
					t.Errorf("workers=%d n=%d: index %d on w=%d, want w in [0, %d)", workers, n, i, w, pool)
				}
				calls[i].Add(1)
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("workers=%d n=%d: index %d called %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForSerialOnCaller: with workers <= 1 the calls run on the
// caller's goroutine, in index order, with w == 0.
func TestForSerialOnCaller(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{-3, 0, 1} {
		var order []int
		For(workers, 50, func(w, i int) {
			if w != 0 {
				t.Errorf("workers=%d: index %d on w=%d, want 0", workers, i, w)
			}
			if id := goroutineID(); id != caller {
				t.Errorf("workers=%d: index %d on goroutine %s, want the caller's %s", workers, i, id, caller)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: call %d was index %d, want index order", workers, i, got)
			}
		}
		if len(order) != 50 {
			t.Fatalf("workers=%d: %d calls, want 50", workers, len(order))
		}
	}
}

// TestForWorkerExclusive: two calls never run at once on the same w, so
// per-worker scratch needs no lock.
func TestForWorkerExclusive(t *testing.T) {
	const workers = 8
	var busy [workers]atomic.Bool
	scratch := make([][]int, workers)
	For(workers, 2000, func(w, i int) {
		if !busy[w].CompareAndSwap(false, true) {
			t.Errorf("index %d: w=%d already busy", i, w)
			return
		}
		// Unsynchronized per-worker state: the race detector flags it
		// if two goroutines ever share a w.
		scratch[w] = append(scratch[w], i)
		runtime.Gosched()
		busy[w].Store(false)
	})
	total := 0
	for _, s := range scratch {
		total += len(s)
	}
	if total != 2000 {
		t.Fatalf("%d calls recorded, want 2000", total)
	}
}

// goroutineID returns the running goroutine's id from the header of
// its stack trace ("goroutine 18 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	return string(buf[:bytes.IndexByte(buf, ' ')])
}
