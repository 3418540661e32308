package dctcp

import (
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// newFan is a fan of pairs with DCTCP and no collector.
func newFan(pairs int) (*topo.Fabric, *Protocol) {
	var cfg transport.Config
	s := topo.Fan(pairs).Build(topo.Overlay{SwitchQueue: SwitchQueue, HostQueue: HostQueue})
	cfg.RTT = 100 * sim.Microsecond
	return s, New(s.Net, cfg)
}

func TestECNMarkingKeepsQueueNearThreshold(t *testing.T) {
	// Two long flows share the bottleneck: DCTCP should hold the queue
	// around K rather than filling the 128-packet buffer.
	s, p := newFan(2)
	mon := netsim.Attach(s.Bottlenecks[0])
	f1 := p.AddFlow(1, s.Senders[0], s.Receivers[0], 8_000_000, 0)
	f2 := p.AddFlow(2, s.Senders[1], s.Receivers[1], 8_000_000, 0)
	s.Net.Run(sim.Second)
	if !f1.Done || !f2.Done {
		t.Fatal("flows did not complete")
	}
	if mon.MaxQueueLen < 8 {
		t.Errorf("queue never built (%d): marking threshold likely never reached", mon.MaxQueueLen)
	}
	if mon.MaxQueueLen > 110 {
		t.Errorf("queue reached %d: DCTCP failed to hold the marking threshold", mon.MaxQueueLen)
	}
	// The ECN queue actually marked packets.
	var marked int64
	for _, sw := range s.Switches {
		for _, pt := range sw.Ports() {
			if q, ok := pt.Queue().(*netsim.ECNQueue); ok {
				marked += q.Marked
			}
		}
	}
	if marked == 0 {
		t.Error("no CE marks applied")
	}
}

func TestFairSharing(t *testing.T) {
	// Two identical flows starting together should finish within ~35%
	// of each other.
	s, p := newFan(2)
	f1 := p.AddFlow(1, s.Senders[0], s.Receivers[0], 6_000_000, 0)
	f2 := p.AddFlow(2, s.Senders[1], s.Receivers[1], 6_000_000, 5*sim.Microsecond)
	s.Net.Run(sim.Second)
	if !f1.Done || !f2.Done {
		t.Fatal("flows did not complete")
	}
	if acked := int64(f1.NPkts + f2.NPkts); p.AcksSent < acked {
		t.Errorf("AcksSent = %d for %d packets", p.AcksSent, acked)
	}
	a, b := float64(f1.FCT()), float64(f2.FCT())
	if ratio := a / b; ratio < 0.65 || ratio > 1.55 {
		t.Errorf("unfair completion: %v vs %v (ratio %.2f)", f1.FCT(), f2.FCT(), ratio)
	}
}

func TestLossRecoveryViaRTO(t *testing.T) {
	// Incast overload: the drop-tail overflows and RTOs must recover.
	s, p := newFan(12)
	var flows []*transport.Flow
	for i := 0; i < 12; i++ {
		flows = append(flows, p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[0], 400_000, 0))
	}
	s.Net.Run(5 * sim.Second)
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("%v did not complete under incast", f)
		}
	}
}

func TestUnresponsiveFlowInert(t *testing.T) {
	s, p := newFan(2)
	dead := p.AddUnresponsiveFlow(1, s.Senders[0], s.Receivers[0], 1_000_000, 0)
	live := p.AddFlow(2, s.Senders[1], s.Receivers[1], 1_000_000, 0)
	s.Net.Run(100 * sim.Millisecond)
	if dead.Done {
		t.Error("unresponsive flow cannot complete")
	}
	if !live.Done {
		t.Fatal("live flow affected by inert one")
	}
}

func TestECNQueueSemantics(t *testing.T) {
	q := (*netsim.Slabs)(nil).NewECN(4, 2)
	mk := func(seq int32) *netsim.Packet {
		return &netsim.Packet{Type: netsim.Data, Seq: seq, Size: netsim.MSS, Prio: netsim.PrioData}
	}
	a, b, c := mk(0), mk(1), mk(2)
	q.Enqueue(a, 0)
	q.Enqueue(b, 0)
	if a.CE || b.CE {
		t.Error("packets below threshold must not be marked")
	}
	q.Enqueue(c, 0)
	if !c.CE {
		t.Error("packet at threshold not marked")
	}
	d, e := mk(3), mk(4)
	if !q.Enqueue(d, 0) {
		t.Error("enqueue below capacity rejected")
	}
	if q.Enqueue(e, 0) {
		t.Error("enqueue above capacity accepted")
	}
	if q.Marked != 2 {
		t.Errorf("Marked = %d, want 2", q.Marked)
	}
	// Control packets are never marked.
	g := &netsim.Packet{Type: netsim.Grant, Size: 64, Prio: netsim.PrioControl}
	q.Dequeue()
	q.Enqueue(g, 0)
	if g.CE {
		t.Error("control packet marked")
	}
}

// TestFlowLifeAllocs: once an instance is warm, 64 flows of 100 packets
// run one after another allocate only the slabs their kept records are
// carved from, sender and receiver side — six each for 64 records
// (2+4+…+32, then the 2 left). The sender is its own RTO event, and
// every bitmap array comes back to the word pool when its flow
// completes, for the next flow. Before, each flow cost a sender, its
// RTO closure and two bitmap arrays besides.
func TestFlowLifeAllocs(t *testing.T) {
	s, p := newFan(1)
	const n = 64
	var flows []*transport.Flow
	for id := netsim.FlowID(1); id <= 2*n+1; id++ { // one warm-up flow, then two batches
		f := p.AddPending(id, s.Senders[0], s.Receivers[0], 100*netsim.MSS, false)
		p.Adopt(f)
		flows = append(flows, f)
	}
	next := 0
	run := func(k int) {
		for ; k > 0; k-- {
			f := flows[next]
			next++
			p.Release(f, p.Now())
			s.Net.Run(p.Now() + 50*p.Cfg.RTT)
			if !f.Done {
				t.Fatalf("%v did not complete", f)
			}
		}
	}
	run(1)
	if got := testing.AllocsPerRun(1, func() { run(n) }); got > 2*6 {
		t.Errorf("%d flows: %.0f allocations, want at most 12", n, got)
	}
}
