package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelEmpty(t *testing.T) {
	out := Parallel(0, func(i int) int { t.Fatal("fn called for n=0"); return 0 })
	if len(out) != 0 {
		t.Fatalf("n=0 returned %d results", len(out))
	}
}

func TestParallelSingle(t *testing.T) {
	out := Parallel(1, func(i int) int { return i + 41 })
	if len(out) != 1 || out[0] != 41 {
		t.Fatalf("n=1 returned %v", out)
	}
}

func TestParallelOrderingAndCoverage(t *testing.T) {
	// More work items than workers, each index exactly once, results in
	// index order regardless of which worker ran them.
	n := 4*runtime.GOMAXPROCS(0) + 7
	var calls atomic.Int64
	out := Parallel(n, func(i int) int {
		calls.Add(1)
		return i * i
	})
	if int(calls.Load()) != n {
		t.Fatalf("fn called %d times, want %d", calls.Load(), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestParallelPropagatesPanic(t *testing.T) {
	var calls atomic.Int64
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("worker panic was swallowed")
		}
		wp, ok := v.(*WorkerPanic)
		if !ok {
			t.Fatalf("re-panicked with %T, want *WorkerPanic", v)
		}
		if wp.Index != 5 || wp.Value != "boom" {
			t.Errorf("WorkerPanic = index %d value %v, want index 5 value boom", wp.Index, wp.Value)
		}
		if len(wp.Stack) == 0 {
			t.Error("WorkerPanic carries no worker stack")
		}
		// The panic must not have aborted the rest of the sweep.
		if int(calls.Load()) != 16 {
			t.Errorf("fn called %d times, want all 16 despite the panic", calls.Load())
		}
	}()
	Parallel(16, func(i int) int {
		calls.Add(1)
		if i == 5 {
			panic("boom")
		}
		return i
	})
	t.Fatal("Parallel returned instead of panicking")
}

func TestParallelRespectsGOMAXPROCS(t *testing.T) {
	// With GOMAXPROCS forced to 1 the pool must not run two fn calls
	// concurrently, even on a many-core machine.
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	var mu sync.Mutex
	var inFlight, maxInFlight int
	Parallel(16, func(i int) struct{} {
		mu.Lock()
		inFlight++
		if inFlight > maxInFlight {
			maxInFlight = inFlight
		}
		mu.Unlock()
		for j := 0; j < 1000; j++ {
			_ = j // busy moment to widen any overlap window
		}
		mu.Lock()
		inFlight--
		mu.Unlock()
		return struct{}{}
	})
	if maxInFlight > 1 {
		t.Fatalf("observed %d concurrent workers under GOMAXPROCS=1", maxInFlight)
	}
}

func TestParallelOrderAndCoverage(t *testing.T) {
	got := Parallel(100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d = %d", i, v)
		}
	}
	if out := Parallel(0, func(i int) int { return i }); len(out) != 0 {
		t.Error("empty input should give empty output")
	}
}
