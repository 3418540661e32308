package netsim

import (
	"testing"

	"amrt/internal/sim"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// hopLine builds hostA - sw1 - sw2 - hostB (three packet-hops from A to
// B) with link jitter on, as the experiment runner configures it. With
// shards == 2 the cut runs between the switches, so the middle hop goes
// through the cross-shard outbox.
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
		if node == Node(a) || node == Node(s1) {
			return 0
		}
		return 1
	})
	return n, a, b
}

// TestPacketHopAllocs is the zero-allocation contract of the forwarding
// path: once the event free chains, the outboxes and the packet pool have
// grown to their working size, moving a packet one hop — tx-done event,
// keyed delivery event, switch lookup, enqueue — allocates nothing, on a
// single engine and across a shard boundary. Wheel buckets and port
// queues are chains through the events and packets themselves, so they
// have no working size to grow to.
func TestPacketHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const packets, hops = 4000, 3
	for _, shards := range []int{1, 2} {
		n, a, b := hopLine(shards)
		got := 0
		b.Handler = func(*Packet) { got++ }
		blast := func(count int) {
			for i := 0; i < count; i++ {
				pkt := NewPacket()
				pkt.Flow, pkt.Type, pkt.Seq = 1, Data, int32(i)
				pkt.Size, pkt.Src, pkt.Dst = MSS, a.ID(), b.ID()
				a.Send(pkt)
			}
			n.Run(sim.Forever)
		}
		blast(packets)
		blast(packets)
		// A sharded Run starts its worker goroutines and channels anew; a
		// run of one packet pays that fixed cost and next to nothing else.
		fixed := testing.AllocsPerRun(5, func() { blast(1) })
		got = 0
		total := testing.AllocsPerRun(5, func() { blast(packets) })
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
