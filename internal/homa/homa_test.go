package homa

import (
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

func newFan(pairs, degree int) (*topo.Fabric, *Protocol) {
	cfg := DefaultConfig()
	cfg.Degree = degree
	s := topo.Fan(pairs).Build(topo.Overlay{SwitchQueue: SwitchQueue, HostQueue: HostQueue})
	cfg.RTT = 100 * sim.Microsecond
	return s, New(s.Net, cfg)
}

func TestUnscheduledWindowHighPriority(t *testing.T) {
	s, p := newFan(1, 2)
	var prios []uint8
	p.Cfg.OnData = func(f *transport.Flow, pkt *netsim.Packet) {
		prios = append(prios, pkt.Prio)
	}
	f := p.AddFlow(1, s.Senders[0], s.Receivers[0], 1_000_000, 0)
	s.Net.Run(sim.Second)
	blind := int(p.BlindPkts(f))
	if len(prios) != int(f.NPkts) {
		t.Fatalf("delivered %d packets", len(prios))
	}
	for i, prio := range prios {
		want := netsim.PrioData
		if i < blind {
			want = netsim.PrioHigh
		}
		if prio != want {
			t.Fatalf("packet %d priority %d, want %d", i, prio, want)
			break
		}
	}
}

func TestOvercommitDegreeLimitsGrantedSenders(t *testing.T) {
	// Three long flows into one receiver with Degree=2: while all are
	// active only the two shortest-remaining are granted; the third
	// must wait, so its completion trails well behind.
	s, p := newFan(3, 2)
	f1 := p.AddFlow(1, s.Senders[0], s.Receivers[0], 3_000_000, 0)
	f2 := p.AddFlow(2, s.Senders[1], s.Receivers[0], 4_000_000, 0)
	f3 := p.AddFlow(3, s.Senders[2], s.Receivers[0], 5_000_000, 0)
	s.Net.Run(sim.Second)
	if !f1.Done || !f2.Done || !f3.Done {
		t.Fatal("flows did not complete")
	}
	if !(f1.End <= f2.End && f2.End <= f3.End) {
		t.Errorf("SRPT order violated: %v %v %v", f1.End, f2.End, f3.End)
	}
	// 12MB total through one 10G downlink ≈ 9.6ms minimum; the link
	// should stay busy (overcommitment's selling point).
	if f3.End > 13*sim.Millisecond {
		t.Errorf("last flow at %v, link under-used", f3.End)
	}
}

func TestUnresponsiveSenderPinsGrantSlot(t *testing.T) {
	// Degree=1: a silent short flow holds the only slot and the live
	// flow starves after its unscheduled window (§8.2's failure mode).
	s, p := newFan(2, 1)
	p.AddUnresponsiveFlow(1, s.Senders[0], s.Receivers[0], 100_000, 0)
	live := p.AddFlow(2, s.Senders[1], s.Receivers[0], 5_000_000, 0)
	s.Net.Run(50 * sim.Millisecond)
	if live.Done {
		t.Error("live flow should starve behind the pinned slot at degree 1")
	}

	// Degree=2 resolves it.
	s2, p2 := newFan(2, 2)
	p2.AddUnresponsiveFlow(1, s2.Senders[0], s2.Receivers[0], 100_000, 0)
	live2 := p2.AddFlow(2, s2.Senders[1], s2.Receivers[0], 5_000_000, 0)
	s2.Net.Run(50 * sim.Millisecond)
	if !live2.Done {
		t.Fatal("live flow should complete at degree 2")
	}
	if fct := live2.FCT(); fct > 6*sim.Millisecond {
		t.Errorf("live flow FCT = %v", fct)
	}
}

func TestHigherDegreeBuildsDeeperQueues(t *testing.T) {
	// Fig. 14(b)'s mechanism: more overcommitment, more buffer use.
	depth := func(degree int) int {
		s, p := newFan(6, degree)
		// Grant bursts from degree simultaneous senders pile up at the
		// shared bottleneck feeding the receiver's leaf.
		mon := netsim.Attach(s.Bottlenecks[0])
		for i := 0; i < 6; i++ {
			p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[0], 2_000_000, sim.Time(i)*3*sim.Microsecond)
		}
		s.Net.Run(sim.Second)
		return mon.MaxQueueLen
	}
	d2, d6 := depth(2), depth(6)
	if d6 <= d2 {
		t.Errorf("queue depth should grow with overcommitment: degree2=%d degree6=%d", d2, d6)
	}
}

// TestGrantedAtMostFlowPackets: the grant target is the received count
// plus one BDP, capped at the flow, so a single flow is never granted
// more packets than it has.
func TestGrantedAtMostFlowPackets(t *testing.T) {
	s, p := newFan(1, 2)
	f := p.AddFlow(1, s.Senders[0], s.Receivers[0], 2_000_000, 0)
	s.Net.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if p.GrantedPkts > int64(f.NPkts) {
		t.Errorf("granted %d packets for a %d-packet flow", p.GrantedPkts, f.NPkts)
	}
}

func TestGrantAccountingInvariant(t *testing.T) {
	// Total packets authorized (blind + granted) never exceeds NPkts,
	// and every grant respects the BDP outstanding window at issue time.
	s, p := newFan(2, 2)
	var grants []netsim.Packet   // copies: delivered packets are recycled after the handler
	s.Receivers[0].Handler = nil // replaced below by install; capture at sender instead
	f1 := p.AddFlow(1, s.Senders[0], s.Receivers[0], 3_000_000, 0)
	f2 := p.AddFlow(2, s.Senders[1], s.Receivers[0], 2_000_000, 0)
	// Intercept grants arriving at sender 0's host.
	orig := s.Senders[0].Handler
	s.Senders[0].Handler = func(pkt *netsim.Packet) {
		if pkt.Type == netsim.Grant && pkt.Seq < 0 {
			grants = append(grants, *pkt)
		}
		orig(pkt)
	}
	s.Net.Run(sim.Second)
	if !f1.Done || !f2.Done {
		t.Fatal("flows did not complete")
	}
	var granted int64
	for _, g := range grants {
		if g.Count <= 0 {
			t.Errorf("grant with non-positive count %d", g.Count)
		}
		granted += int64(g.Count)
	}
	blind := int64(p.BlindPkts(f1))
	if granted+blind < int64(f1.NPkts) {
		t.Errorf("flow 1 authorized %d+%d < %d packets", granted, blind, f1.NPkts)
	}
	// No over-granting beyond the flow (recovery reissues excluded above).
	if granted > int64(f1.NPkts) {
		t.Errorf("flow 1 over-granted: %d window grants for %d packets", granted, f1.NPkts)
	}
}
