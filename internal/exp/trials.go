package exp

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// trials runs fn(0) … fn(n-1) on runtime.GOMAXPROCS(0) goroutines and
// returns the results by index. Every driver's independent cells go through
// it: a cell owns its simulators and seeds them from its index alone, so the
// results, and every table rendered from them, are the same at any
// GOMAXPROCS; GOMAXPROCS=1 runs the cells one after another, in index order.
func trials[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
