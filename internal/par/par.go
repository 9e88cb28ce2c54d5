// Package par is the process's one compute budget. Metamodel training
// and batch prediction, PRIM, BI, the forest trainers, the presort and
// the experiment runners all fan their independent tasks out through
// For, and every For shares GOMAXPROCS−1 helper goroutines.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the helper goroutines running in the process.
var helpers atomic.Int64

// For calls f(w, i) once for every i in [0, n) and returns when every
// call has returned. The caller takes indices from one shared counter
// itself. After taking one, it starts helpers that take indices from
// the same counter while any remain, but only while the process runs
// fewer than GOMAXPROCS−1 helpers, so a For nested in another's call
// or running in another job finds the cores busy and stays on its
// caller. Nothing waits for a helper, so nothing can deadlock.
//
// w names the goroutine making the call: 0 is the caller, and every w
// is below min(n, GOMAXPROCS), read once per call. Two calls with the
// same w never overlap, so f may keep per-worker scratch in a slice of
// n entries indexed by w. With no helper the calls run on the caller,
// in index order, with w == 0. Otherwise they start and finish in no
// fixed order: a caller whose result must not depend on scheduling
// writes each index's result to its own slot and reduces the slots in
// index order afterwards.
func For(n int, f func(w, i int)) {
	procs := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	var wg sync.WaitGroup
	run := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			f(w, i)
		}
	}
	w := 1
	for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
		started := w
		for ; w < min(n, procs) && int(next.Load()) < n; w++ {
			if helpers.Add(1) >= int64(procs) {
				helpers.Add(-1)
				break
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer helpers.Add(-1)
				run(w)
			}(w)
		}
		if w > started {
			// An idle P steals the goroutine this P started last only
			// after a pause: yield so that helper starts here at once.
			runtime.Gosched()
		}
		f(0, i)
	}
	wg.Wait()
}
