package netsim

import (
	"runtime"
	"testing"
	"unsafe"

	"amrt/internal/sim"
)

// hopLine builds hostA - sw1 - sw2 - hostB (three packet-hops from A to
// B) with link jitter on, as the experiment runner configures it. With
// shards == 2 the cut runs between the switches, so the middle hop goes
// through the cross-shard outbox; with 3, B sits on a shard of its own.
func hopLine(shards int) (*Network, *Host, *Host) {
	const rate, delay = 10 * sim.Gbps, 2 * sim.Microsecond
	n := New()
	n.SetJitter(rate.TxTime(MSS)/2, 1)
	a, b := n.NewHost("A"), n.NewHost("B")
	s1, s2 := n.NewSwitch("S1"), n.NewSwitch("S2")
	q := func() Queue { return NewDropTail(0) }
	_, s1a := n.Connect(a, s1, rate, delay, q(), q())
	s12, s21 := n.Connect(s1, s2, rate, delay, q(), q())
	s2b, _ := n.Connect(s2, b, rate, delay, q(), q())
	s1.AddRoute(a.ID(), s1a)
	s1.AddRoute(b.ID(), s12)
	s2.AddRoute(a.ID(), s21)
	s2.AddRoute(b.ID(), s2b)
	n.Partition(shards, func(node Node) int {
		switch node {
		case Node(a), Node(s1):
			return 0
		case Node(s2):
			return 1
		}
		return shards - 1
	})
	return n, a, b
}

// blast queues count data packets A→B, each taken from the free list of
// shard from, and runs the network to the horizon.
func blast(n *Network, a, b *Host, from *Shard, count int, until sim.Time) {
	for i := 0; i < count; i++ {
		pkt := from.NewPacket()
		pkt.Flow, pkt.Type, pkt.Seq = 1, Data, int32(i)
		pkt.Size, pkt.Src, pkt.Dst = MSS, a.ID(), b.ID()
		a.Send(pkt)
	}
	n.Run(until)
}

// TestPacketHopAllocs is the zero-allocation contract of the forwarding
// path: once the event free chains, the outboxes and the packet free
// lists have grown to their working size, moving a packet one hop —
// tx-done event, keyed delivery event, switch lookup, enqueue —
// allocates nothing, on a single engine and across a shard boundary.
// Wheel buckets and port queues are chains through the events and
// packets themselves, so they have no working size to grow to.
//
// Every packet ends its journey on B's shard, so that is the free list
// the test draws from (between runs the test goroutine owns every
// shard): the traffic is one-directional, and drawing from A's shard
// would measure its refills, which TestPacketFreeListBounded covers.
func TestPacketHopAllocs(t *testing.T) {
	const packets, hops = 4000, 3
	for _, shards := range []int{1, 2} {
		n, a, b := hopLine(shards)
		got := 0
		b.Handler = func(*Packet) { got++ }
		send := func(count int) { blast(n, a, b, b.Shard(), count, sim.Forever) }
		send(packets)
		send(packets)
		// A sharded Run starts its worker goroutines and channels anew; a
		// run of one packet pays that fixed cost and next to nothing else.
		fixed := testing.AllocsPerRun(5, func() { send(1) })
		got = 0
		total := testing.AllocsPerRun(5, func() { send(packets) })
		if got != 6*packets { // AllocsPerRun makes one extra warm-up call
			t.Fatalf("shards=%d: delivered %d packets, want %d", shards, got, 6*packets)
		}
		if shards == 1 && fixed != 0 {
			t.Errorf("a single-engine run of one packet allocates %v times, want 0", fixed)
		}
		if total != fixed {
			t.Errorf("shards=%d: %v allocs per run of %d packet-hops, %v per run of %d, want the same",
				shards, total, packets*hops, fixed, hops)
		}
		if shards == 2 && n.Shard(0).PipedOut == 0 {
			t.Error("shards=2: no packet crossed the shard boundary")
		}
	}
}

// TestPacketFreeListBounded: with every sender on shard 0, every
// receiver on shard 1 and no reverse traffic, shard 1's free list takes
// every packet of the run and shard 0's never gets one back. The cap
// holds the first to a constant, and the second carves a chunk at a
// time — one allocation per hundred packets, not one per packet.
func TestPacketFreeListBounded(t *testing.T) {
	const packets = 200_000
	n, a, b := hopLine(2)
	src, dst := a.Shard(), b.Shard()
	if src == dst {
		t.Fatal("A and B share a shard")
	}
	peak := 0
	b.Handler = func(*Packet) { peak = max(peak, dst.nfree) }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	blast(n, a, b, src, packets, sim.Forever)
	runtime.ReadMemStats(&after)
	if b.RxPackets != packets {
		t.Fatalf("delivered %d packets, want %d", b.RxPackets, packets)
	}
	if peak > maxFreePackets || dst.nfree != maxFreePackets {
		t.Errorf("receiving shard's free list peaked at %d and ended at %d packets, want the cap %d",
			peak, dst.nfree, maxFreePackets)
	}
	// The constant covers the event slabs, the outbox and the workers.
	if mallocs, limit := after.Mallocs-before.Mallocs, uint64(packets/100+256); mallocs > limit {
		t.Errorf("%d mallocs for %d one-way packets, want at most %d", mallocs, packets, limit)
	}
}

// TestFreeListRecyclesZeroed: a released packet reads as the zero
// Packet (its chain link apart), and is the next one handed out.
func TestFreeListRecyclesZeroed(t *testing.T) {
	sh := New().Shard(0)
	pkt := sh.NewPacket()
	*pkt = Packet{Flow: 7, Type: Grant, Seq: 3, Size: MSS, Prio: PrioData, Src: 1, Dst: 2,
		CE: true, Echo: true, Count: 2, Trimmed: true, Hops: 4, FlowSize: 9, Demand: 8}
	sh.ReleasePacket(pkt)
	released := *pkt
	released.next = nil
	if released != (Packet{}) {
		t.Errorf("released packet still reads %+v", released)
	}
	if again := sh.NewPacket(); again != pkt || *again != (Packet{}) {
		t.Errorf("NewPacket after a release returned %p %+v, want %p zeroed", again, *again, pkt)
	}
}

// TestPacketIsOneCacheLine: a Packet is exactly 64 bytes, so a slab
// holds a power-of-two count of them and one packet never straddles two
// cache lines of its slab. A new field that grows it must say why.
func TestPacketIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 64 {
		t.Errorf("a Packet is %d bytes, want 64", size)
	}
}

// TestFreeListRejectsOwnedPackets: releasing a packet a queue still
// links, or the packet just released, is an ownership bug and panics.
func TestFreeListRejectsOwnedPackets(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	sh := New().Shard(0)
	queued, behind := sh.NewPacket(), sh.NewPacket()
	q := NewDropTail(0)
	q.Enqueue(queued, 0)
	q.Enqueue(behind, 0)
	mustPanic("release of a queued packet", func() { sh.ReleasePacket(queued) })
	if q.Dequeue() != queued || q.Dequeue() != behind {
		t.Fatal("the rejected release disturbed the queue")
	}
	sh.ReleasePacket(queued)
	mustPanic("second release", func() { sh.ReleasePacket(queued) })
}

// TestRunLeavesNoGoroutines: a sharded Run joins its workers, so none
// outlives it — and none keeps the finished run reachable from a
// goroutine stack — however the run ends. One P makes the count exact:
// the last worker's Done readies the coordinator but the worker keeps
// the P until it has exited. (On several Ps the coordinator can be
// running again a few instructions before that.)
func TestRunLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// An earlier test's Run may have a worker that the change of
	// GOMAXPROCS stopped just short of its exit; let it take its turn.
	runtime.Gosched()
	for _, shards := range []int{2, 3} {
		ends := []struct {
			name    string
			until   sim.Time
			arm     func(n *Network)
			pending bool // events are left behind
		}{
			{name: "drained", until: sim.Forever},
			{name: "horizon", until: 50 * sim.Microsecond, pending: true},
			{name: "interrupted", until: sim.Forever, pending: true, arm: func(n *Network) {
				n.Shard(shards-1).Eng().SetInterrupt(1, func() bool { return true })
			}},
		}
		for _, end := range ends {
			n, a, b := hopLine(shards)
			if end.arm != nil {
				end.arm(n)
			}
			before := runtime.NumGoroutine()
			blast(n, a, b, a.Shard(), 400, end.until)
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("shards=%d %s: %d goroutines after Run, %d before", shards, end.name, after, before)
			}
			_, left := n.earliestPending()
			if left != end.pending {
				t.Errorf("shards=%d %s: events pending after Run = %v, want %v", shards, end.name, left, end.pending)
			}
		}
	}
}
