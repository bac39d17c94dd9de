// Package par provides a deterministic bounded-parallelism map used by the
// experiment harness and the sweep tool.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is what Map returns when a work item panics: the panic is
// caught on the worker, wrapped with its stack, and fed through the same
// lowest-failed-index selection as ordinary errors, so one broken run
// degrades a sweep into a deterministic failure instead of taking the
// whole process down mid-flight.
type PanicError struct {
	Index int    // work item that panicked
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: work item %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// protect runs one work item under a panic net.
func protect[T any](i int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Map evaluates fn(0..n-1) across at most `jobs` concurrent
// workers (0 or negative = GOMAXPROCS) and returns the results in index
// order. Work items are claimed in increasing index order from a shared
// counter, so low indices always run; after a failure no new items are
// claimed, making the returned error — the failure at the lowest index —
// deterministic whenever fn is. A panicking work item is captured on its
// worker and surfaces as a *PanicError through the same selection.
//
// emit, when non-nil, is called in strict index order as results complete
// (progress output stays serialized and deterministic even though the
// computations race). Emission stops at the first failed index.
func Map[T any](n, jobs int, fn func(i int) (T, error), emit func(i int, v T)) ([]T, error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	done := make([]bool, n)

	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		running = jobs
		next    atomic.Int64
		failed  atomic.Bool
	)
	for w := 0; w < jobs; w++ {
		go func() {
			defer func() {
				mu.Lock()
				running--
				cond.Broadcast()
				mu.Unlock()
			}()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				v, err := protect(i, fn)
				mu.Lock()
				results[i], errs[i], done[i] = v, err, true
				if err != nil {
					failed.Store(true)
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}

	// Drain results in index order while the workers run.
	mu.Lock()
	for i := 0; i < n; i++ {
		for !done[i] && running > 0 {
			cond.Wait()
		}
		if !done[i] {
			break // a failure stopped the pipeline before this index
		}
		if errs[i] != nil {
			break
		}
		if emit != nil {
			emit(i, results[i])
		}
	}
	for running > 0 {
		cond.Wait()
	}
	mu.Unlock()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
