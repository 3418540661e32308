package netsim

import (
	"testing"
	"testing/quick"
)

func dataPkt(flow FlowID, seq int32, size int) *Packet {
	return &Packet{Flow: flow, Type: Data, Seq: seq, Size: size, Prio: PrioData, CE: true}
}

func ctrlPkt(t PacketType) *Packet {
	return &Packet{Type: t, Size: ControlSize, Prio: PrioControl}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(10)
	for i := int32(0); i < 5; i++ {
		if !q.Enqueue(dataPkt(1, i, MSS), 0) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	if q.Bytes() != 5*MSS {
		t.Fatalf("Bytes = %d, want %d", q.Bytes(), 5*MSS)
	}
	for i := int32(0); i < 5; i++ {
		p := q.Dequeue()
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d: got %v", i, p)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue from empty queue should return nil")
	}
}

func TestDropTailCapacity(t *testing.T) {
	q := NewDropTail(3)
	for i := int32(0); i < 3; i++ {
		if !q.Enqueue(dataPkt(1, i, MSS), 0) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if q.Enqueue(dataPkt(1, 3, MSS), 0) {
		t.Fatal("enqueue above capacity accepted")
	}
	q.Dequeue()
	if !q.Enqueue(dataPkt(1, 4, MSS), 0) {
		t.Fatal("enqueue after dequeue rejected")
	}
}

func TestDropTailUnbounded(t *testing.T) {
	q := NewDropTail(0)
	for i := int32(0); i < 10000; i++ {
		if !q.Enqueue(dataPkt(1, i, 100), 0) {
			t.Fatal("unbounded queue rejected a packet")
		}
	}
	if q.Len() != 10000 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestFIFOCompaction(t *testing.T) {
	q := NewDropTail(0)
	// Interleave pushes and pops far beyond the compaction threshold; the
	// byte count and ordering must survive compaction.
	seq := int32(0)
	next := int32(0)
	for round := 0; round < 200; round++ {
		for i := 0; i < 7; i++ {
			q.Enqueue(dataPkt(1, seq, 10), 0)
			seq++
		}
		for i := 0; i < 6; i++ {
			p := q.Dequeue()
			if p.Seq != next {
				t.Fatalf("got seq %d, want %d", p.Seq, next)
			}
			next++
		}
	}
	if q.Bytes() != q.Len()*10 {
		t.Fatalf("bytes %d inconsistent with len %d", q.Bytes(), q.Len())
	}
}

func TestPriorityQueueStrictOrder(t *testing.T) {
	q := NewPriority(0)
	lo := dataPkt(1, 0, MSS)
	hi := ctrlPkt(Grant)
	mid := dataPkt(1, 1, MSS)
	mid.Prio = PrioHigh
	q.Enqueue(lo, 0)
	q.Enqueue(hi, 0)
	q.Enqueue(mid, 0)
	if p := q.Dequeue(); p != hi {
		t.Fatalf("first dequeue = %v, want control", p)
	}
	if p := q.Dequeue(); p != mid {
		t.Fatalf("second dequeue = %v, want high", p)
	}
	if p := q.Dequeue(); p != lo {
		t.Fatalf("third dequeue = %v, want data", p)
	}
}

func TestPriorityQueuePerLevelCaps(t *testing.T) {
	q := NewPriority(2, 1, 1)
	if !q.Enqueue(ctrlPkt(Grant), 0) || !q.Enqueue(ctrlPkt(Grant), 0) {
		t.Fatal("control enqueue rejected below cap")
	}
	if q.Enqueue(ctrlPkt(Grant), 0) {
		t.Fatal("control enqueue above cap accepted")
	}
	if !q.Enqueue(dataPkt(1, 0, MSS), 0) {
		t.Fatal("data enqueue rejected below cap")
	}
	if q.Enqueue(dataPkt(1, 1, MSS), 0) {
		t.Fatal("data enqueue above cap accepted")
	}
	if q.LevelLen(PrioControl) != 2 || q.LevelLen(PrioData) != 1 {
		t.Fatalf("level lengths control=%d data=%d", q.LevelLen(PrioControl), q.LevelLen(PrioData))
	}
}

func TestPriorityQueueCapDefaulting(t *testing.T) {
	// A single cap applies to all levels.
	q := NewPriority(1)
	if !q.Enqueue(ctrlPkt(Grant), 0) {
		t.Fatal("control rejected")
	}
	if !q.Enqueue(dataPkt(1, 0, MSS), 0) {
		t.Fatal("data rejected")
	}
	if q.Enqueue(dataPkt(1, 1, MSS), 0) {
		t.Fatal("data above defaulted cap accepted")
	}
}

func TestPriorityQueueClampsOutOfRangePrio(t *testing.T) {
	q := NewPriority(0)
	p := dataPkt(1, 0, MSS)
	p.Prio = 200
	if !q.Enqueue(p, 0) {
		t.Fatal("out-of-range priority rejected")
	}
	if q.LevelLen(NumPriorities-1) != 1 {
		t.Fatal("out-of-range priority not clamped to lowest level")
	}
}

func TestTrimmingQueueTrimsAboveThreshold(t *testing.T) {
	q := NewTrimming(2, 100)
	for i := int32(0); i < 2; i++ {
		if !q.Enqueue(dataPkt(1, i, MSS), 0) {
			t.Fatal("data rejected below trim threshold")
		}
	}
	over := dataPkt(1, 2, MSS)
	if !q.Enqueue(over, 0) {
		t.Fatal("packet above threshold should be trimmed, not dropped")
	}
	if !over.Trimmed || over.Size != ControlSize || over.Prio != PrioControl {
		t.Fatalf("trim did not rewrite packet: %+v", over)
	}
	if q.Trims != 1 {
		t.Fatalf("Trims = %d, want 1", q.Trims)
	}
	// Trimmed header dequeues before the full data packets.
	if p := q.Dequeue(); p != over {
		t.Fatalf("header should dequeue first, got %v", p)
	}
	if q.DataLen() != 2 {
		t.Fatalf("DataLen = %d, want 2", q.DataLen())
	}
}

func TestTrimmingQueueControlBandCap(t *testing.T) {
	q := NewTrimming(0, 2) // trim every data packet
	if !q.Enqueue(dataPkt(1, 0, MSS), 0) || !q.Enqueue(dataPkt(1, 1, MSS), 0) {
		t.Fatal("trimmed packets rejected below control cap")
	}
	if q.Enqueue(dataPkt(1, 2, MSS), 0) {
		t.Fatal("control band overflow accepted")
	}
	if q.Enqueue(ctrlPkt(Pull), 0) {
		t.Fatal("control packet accepted into full control band")
	}
}

func TestTrimmingQueueControlFirst(t *testing.T) {
	q := NewTrimming(10, 100)
	d := dataPkt(1, 0, MSS)
	q.Enqueue(d, 0)
	c := ctrlPkt(Pull)
	q.Enqueue(c, 0)
	if p := q.Dequeue(); p != c {
		t.Fatalf("control should dequeue before data, got %v", p)
	}
	if p := q.Dequeue(); p != d {
		t.Fatalf("expected data packet, got %v", p)
	}
}

// Property: for any enqueue/dequeue interleaving, a drop-tail queue
// preserves FIFO order and never exceeds capacity.
func TestDropTailProperty(t *testing.T) {
	f := func(ops []bool) bool {
		const cap = 8
		q := NewDropTail(cap)
		var model []int32
		seq := int32(0)
		for _, push := range ops {
			if push {
				ok := q.Enqueue(dataPkt(1, seq, 1), 0)
				if ok != (len(model) < cap) {
					return false
				}
				if ok {
					model = append(model, seq)
				}
				seq++
			} else {
				p := q.Dequeue()
				if len(model) == 0 {
					if p != nil {
						return false
					}
					continue
				}
				if p == nil || p.Seq != model[0] {
					return false
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
