package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// WorkerPanic is what Parallel re-panics with when a worker's fn call
// panicked: the failing index, the original panic value, and the stack
// captured at the panic site (the re-panic on the caller's goroutine
// would otherwise hide where the failure actually happened).
type WorkerPanic struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error so recovered WorkerPanics compose with errors.As.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("experiment: Parallel task %d panicked: %v\nworker stack:\n%s", p.Index, p.Value, p.Stack)
}

// Parallel runs fn(i) for i in [0, n) on a bounded worker pool. Each
// index is an independent simulation, so this is safe. Every worker
// claims one index at a time from a shared atomic cursor and runs it
// before claiming the next, so a slow index holds up only its own
// worker. Results are returned in index order.
//
// If any fn call panics, Parallel still runs the remaining tasks, then
// re-panics on the caller's goroutine with a *WorkerPanic describing
// the first failure — a panic in one sweep cell must fail the sweep,
// not silently leave a zero T in the results.
//
// The pool is capped at GOMAXPROCS rather than the raw CPU count so a
// user's -cpu flag, GOMAXPROCS environment override, or container CPU
// quota (which recent Go runtimes reflect into GOMAXPROCS) bounds the
// sweep's parallelism too.
func Parallel[T any](n int, fn func(i int) T) []T {
	out, _, _ := ParallelCtx(context.Background(), n, 0, fn)
	return out
}

// ParallelCtx is Parallel with cooperative cancellation: once ctx is
// done, no further indices are claimed (tasks already running finish
// — make fn itself ctx-aware for prompt in-task aborts). It returns the
// results, a mask marking which indices actually ran to completion, and
// ctx.Err() (nil when every index ran). workers caps the pool below the
// GOMAXPROCS ceiling; workers <= 0 means the full GOMAXPROCS pool.
// Panic propagation is identical to Parallel: the remaining tasks still
// run, then the caller's goroutine re-panics with a *WorkerPanic
// describing the first failure.
func ParallelCtx[T any](ctx context.Context, n, workers int, fn func(i int) T) ([]T, []bool, error) {
	max := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > max {
		workers = max
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]T, n)
	ran := make([]bool, n)
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var first *WorkerPanic
	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				panicOnce.Do(func() {
					first = &WorkerPanic{Index: i, Value: v, Stack: debug.Stack()}
				})
			}
		}()
		out[i] = fn(i)
		ran[i] = true
	}
	// Each worker claims the next index from one shared cursor with one
	// atomic add. ctx.Err() is checked before every claim, so once it is
	// visible no further index is claimed.
	var cursor atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(cursor.Add(1) - 1)
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
	return out, ran, ctx.Err()
}
