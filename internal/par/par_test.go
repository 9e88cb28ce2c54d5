package par

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCallsEveryIndexOnce: every index in [0, n) is called exactly
// once, w stays below min(n, GOMAXPROCS), and no helper outlives the
// call.
func TestForCallsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8, 64} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, n := range []int{-1, 0, 1, 2, 7, 1000} {
				width := max(min(procs, n), 1)
				calls := make([]atomic.Int32, max(n, 0))
				For(n, func(w, i int) {
					if w < 0 || w >= width {
						t.Errorf("GOMAXPROCS=%d n=%d: index %d on w=%d, want w in [0, %d)", procs, n, i, w, width)
					}
					calls[i].Add(1)
				})
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Errorf("GOMAXPROCS=%d n=%d: index %d called %d times", procs, n, i, c)
					}
				}
				if h := helpers.Load(); h != 0 {
					t.Errorf("GOMAXPROCS=%d n=%d: %d helpers still counted after For returned", procs, n, h)
				}
			}
		}()
	}
}

// TestForSerialOnCaller: at GOMAXPROCS 1 the calls run on the caller's
// goroutine, in index order, with w == 0.
func TestForSerialOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	caller := goroutineID()
	var order []int
	For(50, func(w, i int) {
		if w != 0 {
			t.Errorf("index %d on w=%d, want 0", i, w)
		}
		if id := goroutineID(); id != caller {
			t.Errorf("index %d on goroutine %s, want the caller's %s", i, id, caller)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d was index %d, want index order", i, got)
		}
	}
	if len(order) != 50 {
		t.Fatalf("%d calls, want 50", len(order))
	}
}

// TestForWorkerExclusive: two calls never run at once on the same w, so
// per-worker scratch needs no lock.
func TestForWorkerExclusive(t *testing.T) {
	const procs = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var busy [procs]atomic.Bool
	scratch := make([][]int, procs)
	For(2000, func(w, i int) {
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

// TestForNestedSharesOneBudget: a For inside another's calls shares the
// process's GOMAXPROCS−1 helpers with it, so at GOMAXPROCS 4 at most 4
// inner calls run at once, not 4 per outer call, and every helper is
// released by the time the outer For returns.
func TestForNestedSharesOneBudget(t *testing.T) {
	const procs = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var running, peak, calls atomic.Int64
	For(16, func(_, _ int) {
		For(64, func(_, _ int) {
			r := running.Add(1)
			for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
			}
			for range 3 {
				runtime.Gosched() // stay in the call while other goroutines run
			}
			running.Add(-1)
			calls.Add(1)
		})
	})
	if c := calls.Load(); c != 16*64 {
		t.Fatalf("%d inner calls, want %d", c, 16*64)
	}
	if p := peak.Load(); p > procs {
		t.Fatalf("%d calls ran at once, want at most GOMAXPROCS = %d", p, procs)
	}
	if h := helpers.Load(); h != 0 {
		t.Fatalf("%d helpers still counted after the outer For returned", h)
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
