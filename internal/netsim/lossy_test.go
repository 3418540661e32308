package netsim

import (
	"math"
	"testing"
)

// heap is the nil Slabs: queues made through it are allocated on their
// own, as a queue outside any fabric is.
var heap *Slabs

func TestLossyQueueDropRate(t *testing.T) {
	q := heap.NewLossy(NewDropTail(0), 0.3, 42)
	const n = 20000
	accepted := 0
	for i := int32(0); i < n; i++ {
		if q.Enqueue(dataPkt(1, i, MSS), 0) {
			accepted++
		}
	}
	got := 1 - float64(accepted)/n
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("observed drop rate %.3f, want ~0.3", got)
	}
	if q.Injected != int64(n-accepted) {
		t.Errorf("Injected = %d, want %d", q.Injected, n-accepted)
	}
	if q.Len() != accepted {
		t.Errorf("inner queue holds %d, want %d", q.Len(), accepted)
	}
}

func TestLossyQueueSparesControlAndTrimmed(t *testing.T) {
	q := heap.NewLossy(NewDropTail(0), 1.0, 1) // drop every data packet
	if q.Enqueue(dataPkt(1, 0, MSS), 0) {
		t.Error("data packet survived 100% loss")
	}
	if !q.Enqueue(ctrlPkt(Grant), 0) {
		t.Error("control packet dropped by loss injector")
	}
	trimmed := dataPkt(1, 1, ControlSize)
	trimmed.Trimmed = true
	if !q.Enqueue(trimmed, 0) {
		t.Error("trimmed header dropped by loss injector")
	}
}

func TestLossyQueueDeterministic(t *testing.T) {
	run := func() []bool {
		q := heap.NewLossy(NewDropTail(0), 0.5, 7)
		out := make([]bool, 100)
		for i := range out {
			out[i] = q.Enqueue(dataPkt(1, int32(i), MSS), 0)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different drop pattern")
		}
	}
}

func TestLossyQueueDelegates(t *testing.T) {
	inner := NewDropTail(2)
	q := heap.NewLossy(inner, 0, 1)
	p1, p2, p3 := dataPkt(1, 0, 100), dataPkt(1, 1, 100), dataPkt(1, 2, 100)
	if !q.Enqueue(p1, 0) || !q.Enqueue(p2, 0) {
		t.Fatal("zero-loss wrapper rejected packets")
	}
	if q.Enqueue(p3, 0) {
		t.Error("inner capacity not enforced")
	}
	if q.Bytes() != 200 {
		t.Errorf("Bytes = %d", q.Bytes())
	}
	if got := q.Dequeue(); got != p1 {
		t.Error("FIFO order broken through wrapper")
	}
}
