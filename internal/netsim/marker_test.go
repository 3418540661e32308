package netsim

import (
	"testing"
	"testing/quick"

	"amrt/internal/sim"
)

// markerPair builds A -- switch -- B with an anti-ECN marker on the
// switch egress toward B, and returns received packets' CE bits.
func markerPair(t *testing.T) (*Network, *Host, *Host, *AntiECNMarker, *[]bool) {
	t.Helper()
	n, a, b, sw := pair(t, 10*sim.Gbps, 0, nil)
	m := NewAntiECNMarker()
	sw.Ports()[1].Marker = m
	var ces []bool
	b.Handler = func(pkt *Packet) { ces = append(ces, pkt.CE) }
	return n, a, b, m, &ces
}

func sendData(a, b *Host, flow FlowID, seq int32) {
	a.Send(&Packet{Flow: flow, Type: Data, Seq: seq, Size: MSS, Src: a.ID(), Dst: b.ID(), Prio: PrioData, CE: true})
}

func TestMarkerBackToBackNotMarked(t *testing.T) {
	n, a, b, m, ces := markerPair(t)
	n.Engine.Schedule(0, func() {
		for i := int32(0); i < 10; i++ {
			sendData(a, b, 1, i)
		}
	})
	n.Run(sim.Second)
	if len(*ces) != 10 {
		t.Fatalf("delivered %d", len(*ces))
	}
	// First packet finds an idle egress -> marked. The rest are
	// back-to-back (the host NIC feeds the switch at exactly line rate)
	// so the idle gap is zero and they must not be marked.
	if !(*ces)[0] {
		t.Error("first packet on idle link should keep CE=1")
	}
	for i := 1; i < 10; i++ {
		if (*ces)[i] {
			t.Errorf("back-to-back packet %d marked CE", i)
		}
	}
	if m.Observed != 10 {
		t.Errorf("Observed = %d", m.Observed)
	}
	if m.Marked != 1 {
		t.Errorf("Marked = %d, want 1", m.Marked)
	}
}

func TestMarkerGapGetsMarked(t *testing.T) {
	n, a, b, _, ces := markerPair(t)
	// Packets spaced 3× the MSS serialization time apart: every gap fits
	// at least one more packet, so all should stay marked.
	for i := int32(0); i < 5; i++ {
		i := i
		n.Engine.Schedule(sim.Time(i)*3600, func() { sendData(a, b, 1, i) })
	}
	n.Run(sim.Second)
	for i, ce := range *ces {
		if !ce {
			t.Errorf("spaced packet %d lost CE mark", i)
		}
	}
}

func TestMarkerSubPacketGapNotMarked(t *testing.T) {
	n, a, b, _, ces := markerPair(t)
	// Gap of half a packet time (600ns idle after 1200ns tx): spacing 1800ns.
	for i := int32(0); i < 5; i++ {
		i := i
		n.Engine.Schedule(sim.Time(i)*1800, func() { sendData(a, b, 1, i) })
	}
	n.Run(sim.Second)
	for i, ce := range *ces {
		if i == 0 {
			continue // idle-start packet is marked
		}
		if ce {
			t.Errorf("packet %d with sub-MSS gap kept CE", i)
		}
	}
}

func TestMarkerExactGapBoundary(t *testing.T) {
	n, a, b, _, ces := markerPair(t)
	// Spacing exactly 2×txTime: idle gap == MSS/C, which satisfies >= and
	// must be marked (one more packet fits exactly).
	for i := int32(0); i < 4; i++ {
		i := i
		n.Engine.Schedule(sim.Time(i)*2400, func() { sendData(a, b, 1, i) })
	}
	n.Run(sim.Second)
	for i, ce := range *ces {
		if !ce {
			t.Errorf("packet %d at exact one-MSS gap not marked", i)
		}
	}
}

func TestMarkerIgnoresControlPackets(t *testing.T) {
	n, a, b, sw := pair(t, 10*sim.Gbps, 0, nil)
	m := NewAntiECNMarker()
	sw.Ports()[1].Marker = m
	var got []Packet // copies: delivered packets are recycled after the handler
	b.Handler = func(pkt *Packet) { got = append(got, *pkt) }
	n.Engine.Schedule(0, func() {
		g := &Packet{Flow: 1, Type: Grant, Size: ControlSize, Src: a.ID(), Dst: b.ID(), Prio: PrioControl, CE: true}
		a.Send(g)
	})
	n.Run(sim.Second)
	if m.Observed != 0 {
		t.Errorf("marker observed %d control packets", m.Observed)
	}
	if len(got) != 1 || !got[0].CE {
		t.Error("control packet CE bit must pass through untouched")
	}
}

func TestMarkerANDAcrossHops(t *testing.T) {
	// Chain: A -- s1 -- s2 -- B, markers on both switch egresses toward B.
	// A cross host C injects traffic into s2's egress so the second hop is
	// saturated: packets marked at hop 1 must lose the mark at hop 2.
	n := New()
	a := n.NewHost("A")
	c := n.NewHost("C")
	b := n.NewHost("B")
	s1 := n.NewSwitch("s1")
	s2 := n.NewSwitch("s2")
	rate, q := 10*sim.Gbps, func() Queue { return NewDropTail(1024) }
	n.Connect(a, s1, rate, 0, q(), q())
	p12, _ := n.Connect(s1, s2, rate, 0, q(), q())
	n.Connect(c, s2, rate, 0, q(), q())
	p2b, _ := n.Connect(s2, b, rate, 0, q(), q())
	s1.AddRoute(b.ID(), p12)
	s2.AddRoute(b.ID(), p2b)
	m1 := NewAntiECNMarker()
	m2 := NewAntiECNMarker()
	p12.Marker = m1
	p2b.Marker = m2

	var ces []bool
	b.Handler = func(pkt *Packet) {
		if pkt.Flow == 1 {
			ces = append(ces, pkt.CE)
		}
	}
	// Flow 1 from A: widely spaced (spare at hop 1).
	for i := int32(0); i < 20; i++ {
		i := i
		n.Engine.Schedule(sim.Time(i)*6000, func() { sendData(a, b, 1, i) })
	}
	// Flow 2 from C: line-rate blast keeps s2->B egress saturated.
	n.Engine.Schedule(0, func() {
		for i := int32(0); i < 200; i++ {
			c.Send(&Packet{Flow: 2, Type: Data, Seq: i, Size: MSS, Src: c.ID(), Dst: b.ID(), Prio: PrioData, CE: true})
		}
	})
	n.Run(sim.Second)
	if len(ces) != 20 {
		t.Fatalf("flow 1 delivered %d", len(ces))
	}
	marked := 0
	for _, ce := range ces {
		if ce {
			marked++
		}
	}
	// While C's blast occupies s2 (first 200*1200ns = 240µs, i.e. the
	// first ~40 of flow 1's packets at 6µs spacing — all 20), flow 1 must
	// not stay marked even though hop 1 sees spare bandwidth.
	if marked > 1 { // allow the very first packet before the blast ramps
		t.Errorf("%d/20 packets stayed marked across a saturated second hop", marked)
	}
	if m1.Marked < 19 {
		t.Errorf("hop1 marked %d/20, expected nearly all", m1.Marked)
	}
}

func TestMarkerORModeAblation(t *testing.T) {
	// Same saturated-second-hop setup conceptually, but verify directly on
	// the combine operator.
	p := &Packet{Type: Data, Size: MSS, CE: false}
	m := &AntiECNMarker{GapFactor: 1, Mode: CombineOR}
	port := &Port{net: New(), link: Link{Rate: 10 * sim.Gbps}}
	port.everSent = true
	port.lastTxEnd = 0
	m.OnDequeue(port, p, 5000) // idle 5µs >= 1.2µs
	if !p.CE {
		t.Error("OR mode should set CE on spare bandwidth even if previously cleared")
	}
}

func TestMarkerGapFactorAblation(t *testing.T) {
	port := &Port{net: New(), link: Link{Rate: 10 * sim.Gbps}}
	port.everSent = true
	port.lastTxEnd = 0
	// Gap of 1.2µs: factor 1 marks, factor 2 does not.
	for _, c := range []struct {
		factor float64
		want   bool
	}{{1, true}, {2, false}, {0.5, true}} {
		p := &Packet{Type: Data, Size: MSS, CE: true}
		m := &AntiECNMarker{GapFactor: c.factor, Mode: CombineAND}
		m.OnDequeue(port, p, 1200)
		if p.CE != c.want {
			t.Errorf("factor %.1f: CE=%v, want %v", c.factor, p.CE, c.want)
		}
	}
}

// Property: AND-combining is monotone — a packet that arrives with CE=0
// can never leave marked in AND mode, regardless of the gap.
func TestMarkerANDMonotoneProperty(t *testing.T) {
	f := func(gapNS uint32, startCE bool) bool {
		port := &Port{net: New(), link: Link{Rate: 10 * sim.Gbps}}
		port.everSent = true
		p := &Packet{Type: Data, Size: MSS, CE: startCE}
		m := NewAntiECNMarker()
		m.OnDequeue(port, p, sim.Time(gapNS))
		if !startCE && p.CE {
			return false
		}
		spare := sim.Time(gapNS) >= 1200
		return p.CE == (startCE && spare)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
