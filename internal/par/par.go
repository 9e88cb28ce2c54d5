// Package par is the module's one bounded compute pool. Metamodel
// training and batch prediction, PRIM, BI, the forest trainers, the
// presort and the experiment runners all fan their independent tasks
// out through For.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls f(w, i) once for every i in [0, n) and returns when every
// call has returned. The calls run on min(workers, n) goroutines that
// take indices from one shared counter, so uneven tasks stay balanced.
// w, in [0, min(workers, n)), names the goroutine making the call, and
// two calls with the same w never overlap, so f may keep per-worker
// scratch in a slice indexed by w. When workers <= 1 every call runs on
// the caller, in index order, with w == 0, and no goroutine starts.
//
// Calls start and finish in no fixed order: a caller whose result must
// not depend on scheduling writes each index's result to its own slot
// and reduces the slots in index order afterwards.
func For(workers, n int, f func(w, i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(w, i)
			}
		}()
	}
	wg.Wait()
}
