package experiment

import (
	"runtime"
	"strings"
	"testing"
)

// programAllocsPerRun is testing.AllocsPerRun — one warm-up call, then
// runs calls on one P, the average count of allocations — counting only
// the program's allocations. testing.AllocsPerRun reads the process's
// malloc counter, which also counts what the runtime allocates for
// itself meanwhile on its own goroutines: the background scavenger
// growing a P's timer heap when it re-arms its sleep timer
// (runtime.bgscavenge → (*timer).reset → (*timers).addHeap) showed up
// in 1 of 1,000 two-run windows of a warm DCTCP run, and more often
// after GOMAXPROCS moved every timer onto one P and under CPU load, so
// a guard with a non-zero bound failed now and then. Here every
// allocation is profiled, and one whose recorded stack holds only
// runtime frames is the runtime's own and is not counted.
func programAllocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	f()
	before := programAllocs()
	for i := 0; i < runs; i++ {
		f()
	}
	return float64((programAllocs() - before) / int64(runs))
}

// programAllocs returns how many objects the program has allocated
// while the memory profile recorded every allocation, as of a
// collection it runs first (the profile publishes at the end of a
// cycle), leaving out those the runtime made for itself and its own.
func programAllocs() int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var total int64
	for i := range recs {
		if programs(recs[i].Stack()) {
			total += recs[i].AllocObjects
		}
	}
	return total
}

// programs reports whether an allocation with this stack is the
// program's: it has a frame outside the runtime, and it is not
// programAllocs' own bookkeeping.
func programs(stack []uintptr) bool {
	program := false
	frames := runtime.CallersFrames(stack)
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		switch {
		case strings.HasSuffix(f.Function, "experiment.programAllocs"):
			return false
		case !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "internal/runtime/"):
			program = true
		}
	}
	return program
}

// TestProgramAllocsPerRun: programAllocsPerRun counts a function's own
// allocations exactly, and none for a function that makes none.
func TestProgramAllocsPerRun(t *testing.T) {
	var sink [][]byte
	if got := programAllocsPerRun(5, func() {
		for i := 0; i < 3; i++ {
			sink = append(sink[:0], make([]byte, 64+i))
		}
	}); got != 3 {
		t.Errorf("three allocations a call counted as %v", got)
	}
	if got := programAllocsPerRun(5, func() {}); got != 0 {
		t.Errorf("an empty call counted %v allocations", got)
	}
	_ = sink
}
