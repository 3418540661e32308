package pool

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// fourWorkers raises GOMAXPROCS to 4 for the test, so ParallelCtx's
// GOMAXPROCS ceiling does not shrink a 4-worker pool on a smaller host.
func fourWorkers(t *testing.T) int {
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	return 4
}

func TestParallelCtxRunsAll(t *testing.T) {
	out, ran, err := ParallelCtx(context.Background(), 20, 3, func(i int) int { return i * i })
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	for i, v := range out {
		if v != i*i || !ran[i] {
			t.Fatalf("index %d: out=%d ran=%v", i, v, ran[i])
		}
	}
}

func TestParallelCtxCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	const n = 100
	// One worker, sequential: cancelling inside task 2 guarantees no
	// further index is dispatched after it returns.
	out, ran, err := ParallelCtx(ctx, n, 1, func(i int) int {
		executed.Add(1)
		if i == 2 {
			cancel()
		}
		return i
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := executed.Load(); got != 3 {
		t.Errorf("executed %d tasks, want 3 (0,1,2)", got)
	}
	for i := 0; i < n; i++ {
		wantRan := i <= 2
		if ran[i] != wantRan {
			t.Fatalf("ran[%d] = %v, want %v", i, ran[i], wantRan)
		}
		if wantRan && out[i] != i {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

func TestParallelCtxPanicPropagates(t *testing.T) {
	defer func() {
		v := recover()
		wp, ok := v.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T %v, want *WorkerPanic", v, v)
		}
		if wp.Index != 4 {
			t.Errorf("panic index %d, want 4", wp.Index)
		}
	}()
	ParallelCtx(context.Background(), 8, 2, func(i int) int {
		if i == 4 {
			panic("boom")
		}
		return i
	})
	t.Fatal("ParallelCtx did not re-panic")
}

func TestParallelCtxPanicWithCancelledContext(t *testing.T) {
	// A worker that panics while the context is already cancelled must
	// still surface as *WorkerPanic: the cancellation path stops
	// dispatch, but it must never swallow a panic from a task that was
	// already running. The campaign daemon's panic-isolation contract
	// depends on this — a crashed cell has to be observable, not lost
	// behind ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	defer func() {
		v := recover()
		wp, ok := v.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T %v, want *WorkerPanic", v, v)
		}
		if wp.Index != 0 {
			t.Errorf("panic index %d, want 0", wp.Index)
		}
		if wp.Value != "boom after cancel" {
			t.Errorf("panic value %v", wp.Value)
		}
		if len(wp.Stack) == 0 {
			t.Error("WorkerPanic carries no worker stack")
		}
		if got := executed.Load(); got != 1 {
			t.Errorf("executed %d tasks after cancellation, want 1", got)
		}
	}()
	ParallelCtx(ctx, 16, 1, func(i int) int {
		executed.Add(1)
		cancel() // the context is cancelled before the panic fires
		if ctx.Err() == nil {
			t.Error("cancel did not take effect before the panic")
		}
		panic("boom after cancel")
	})
	t.Fatal("ParallelCtx did not re-panic")
}

func TestParallelCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, ran, err := ParallelCtx(ctx, 10, 0, func(i int) int { return i })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	for i, r := range ran {
		if r {
			t.Fatalf("pre-cancelled context still ran index %d", i)
		}
	}
}

func TestParallelCtxEachIndexOnceOnFourWorkers(t *testing.T) {
	workers := fourWorkers(t)
	const n = 1000
	var calls [n]atomic.Int32
	out, ran, err := ParallelCtx(context.Background(), n, workers, func(i int) int {
		calls[i].Add(1)
		return i * 3
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	for i := 0; i < n; i++ {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, c)
		}
		if out[i] != i*3 || !ran[i] {
			t.Fatalf("index %d: out=%d ran=%v", i, out[i], ran[i])
		}
	}
}

func TestParallelCtxCancelOnFourWorkers(t *testing.T) {
	workers := fourWorkers(t)
	const n, k = 200, 37
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started [n]atomic.Bool
	var count atomic.Int64
	// Tasks after k hold their worker until the cancellation, so the
	// other workers cannot race past k while task k is still running:
	// each holds at most one index beyond k when cancel lands.
	out, ran, err := ParallelCtx(ctx, n, workers, func(i int) int {
		started[i].Store(true)
		count.Add(1)
		switch {
		case i == k:
			cancel()
		case i > k:
			<-ctx.Done()
		}
		return i + 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := count.Load(); got > k+int64(workers) {
		t.Errorf("%d tasks started, want at most %d (k + workers)", got, k+workers)
	}
	for i := 0; i < n; i++ {
		switch {
		case i <= k && !started[i].Load():
			t.Errorf("index %d before the cancelling task %d never started", i, k)
		case !started[i].Load() && ran[i]:
			t.Errorf("ran[%d] = true for an index that never started", i)
		case started[i].Load() && (!ran[i] || out[i] != i+1):
			t.Errorf("started index %d: ran=%v out=%d", i, ran[i], out[i])
		}
	}
}

func TestParallelCtxFewerTasksThanWorkers(t *testing.T) {
	workers := fourWorkers(t)
	for _, n := range []int{0, 1, workers - 1} {
		var calls atomic.Int64
		out, ran, err := ParallelCtx(context.Background(), n, workers, func(i int) int {
			calls.Add(1)
			return -i
		})
		if err != nil || len(out) != n || len(ran) != n || int(calls.Load()) != n {
			t.Fatalf("n=%d: err=%v len(out)=%d len(ran)=%d calls=%d", n, err, len(out), len(ran), calls.Load())
		}
		for i := range out {
			if out[i] != -i || !ran[i] {
				t.Fatalf("n=%d index %d: out=%d ran=%v", n, i, out[i], ran[i])
			}
		}
	}
}

func TestParallelCtxPanicOnFourWorkersRunsRest(t *testing.T) {
	workers := fourWorkers(t)
	const n, bad = 300, 123
	var calls [n]atomic.Int32
	defer func() {
		wp, ok := recover().(*WorkerPanic)
		if !ok || wp.Index != bad || wp.Value != "boom" {
			t.Fatalf("recovered %+v, want *WorkerPanic for index %d", wp, bad)
		}
		for i := 0; i < n; i++ {
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("index %d ran %d times after the panic at %d, want 1", i, c, bad)
			}
		}
	}()
	ParallelCtx(context.Background(), n, workers, func(i int) int {
		calls[i].Add(1)
		if i == bad {
			panic("boom")
		}
		return i
	})
	t.Fatal("ParallelCtx did not re-panic")
}
