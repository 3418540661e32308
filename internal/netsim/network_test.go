package netsim

import (
	"testing"

	"amrt/internal/sim"
)

// pair builds host A -- switch -- host B with symmetric links.
func pair(t *testing.T, rate sim.Rate, delay sim.Time, qf QueueFactory) (*Network, *Host, *Host, *Switch) {
	t.Helper()
	n := New()
	a := n.NewHost("A")
	b := n.NewHost("B")
	sw := n.NewSwitch("S")
	if qf == nil {
		qf = func(s *Slabs) Queue { return s.NewDropTail(128) }
	}
	n.Connect(a, sw, rate, delay, qf(nil), qf(nil))
	n.Connect(b, sw, rate, delay, qf(nil), qf(nil))
	// Switch port 0 goes to A (created by first Connect), port 1 to B.
	sw.AddRoute(a.ID(), sw.Ports()[0])
	sw.AddRoute(b.ID(), sw.Ports()[1])
	return n, a, b, sw
}

func TestStoreAndForwardTiming(t *testing.T) {
	n, a, b, _ := pair(t, 10*sim.Gbps, 10*sim.Microsecond, nil)
	var arrived sim.Time
	b.Handler = func(pkt *Packet) { arrived = n.Engine.Now() }
	n.Engine.Schedule(0, func() {
		a.Send(&Packet{Flow: 1, Type: Data, Size: MSS, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
	})
	n.Run(sim.Second)
	// 1200ns serialize + 10µs propagate, twice (host->switch, switch->host).
	want := sim.Time(2 * (1200 + 10000))
	if arrived != want {
		t.Errorf("arrival at %v, want %v", arrived, want)
	}
}

func TestSerializationQueuesBackToBack(t *testing.T) {
	n, a, b, _ := pair(t, 10*sim.Gbps, 0, nil)
	var arrivals []sim.Time
	b.Handler = func(pkt *Packet) { arrivals = append(arrivals, n.Engine.Now()) }
	n.Engine.Schedule(0, func() {
		for i := int32(0); i < 3; i++ {
			a.Send(&Packet{Flow: 1, Type: Data, Seq: i, Size: MSS, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
		}
	})
	n.Run(sim.Second)
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(arrivals))
	}
	// With zero propagation delay the switch egress is the pacer: packet i
	// leaves the switch at (i+2)*1200ns... first arrives after two
	// serializations (host + switch), then one per 1200ns.
	if arrivals[0] != 2400 {
		t.Errorf("first arrival %v, want 2400ns", arrivals[0])
	}
	for i := 1; i < 3; i++ {
		if arrivals[i]-arrivals[i-1] != 1200 {
			t.Errorf("inter-arrival %v, want 1200ns", arrivals[i]-arrivals[i-1])
		}
	}
}

func TestDropCountingAndHook(t *testing.T) {
	n, a, b, _ := pair(t, 10*sim.Gbps, 0, func(*Slabs) Queue { return NewDropTail(1) })
	var hooked []Packet // copies: the pool reclaims dropped packets after the hook
	n.SetDropHook(func(pkt *Packet) { hooked = append(hooked, *pkt) })
	delivered := 0
	b.Handler = func(pkt *Packet) { delivered++ }
	n.Engine.Schedule(0, func() {
		// Burst of 5 into a queue of 1: first transmits immediately, one
		// queues at the host NIC, rest drop there.
		for i := int32(0); i < 5; i++ {
			a.Send(&Packet{Flow: 1, Type: Data, Seq: i, Size: MSS, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
		}
	})
	n.Run(sim.Second)
	if delivered != 2 {
		t.Errorf("delivered %d, want 2", delivered)
	}
	if n.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", n.Dropped())
	}
	if n.DroppedOfType(Data) != 3 {
		t.Errorf("DroppedByType[Data] = %d, want 3", n.DroppedOfType(Data))
	}
	if len(hooked) != 3 {
		t.Errorf("DropHook saw %d, want 3", len(hooked))
	}
	if got := a.NIC().Drops; got != 3 {
		t.Errorf("NIC drops = %d, want 3", got)
	}
}

func TestConservationUnderRandomTraffic(t *testing.T) {
	n, a, b, _ := pair(t, 10*sim.Gbps, 5*sim.Microsecond, func(*Slabs) Queue { return NewDropTail(4) })
	rng := sim.NewRNG(3)
	sent := 0
	delivered := 0
	b.Handler = func(pkt *Packet) { delivered++ }
	a.Handler = func(pkt *Packet) { delivered++ }
	for i := 0; i < 2000; i++ {
		at := sim.Time(rng.Int63n(int64(2 * sim.Millisecond)))
		src, dst := a, b
		if rng.Intn(2) == 0 {
			src, dst = b, a
		}
		s, d := src, dst
		n.Engine.ScheduleAt(at, func() {
			s.Send(&Packet{Flow: FlowID(rng.Int63()), Type: Data, Size: MSS, Src: s.ID(), Dst: d.ID(), Prio: PrioData})
			sent++
		})
	}
	n.Run(sim.Second)
	if sent != 2000 {
		t.Fatalf("sent %d, want 2000", sent)
	}
	if delivered+int(n.Dropped()) != sent {
		t.Errorf("conservation violated: delivered %d + dropped %d != sent %d", delivered, n.Dropped(), sent)
	}
	if int(n.Delivered()) != delivered {
		t.Errorf("network Delivered=%d, handler count=%d", n.Delivered(), delivered)
	}
}

func TestHostSendWithoutNICPanics(t *testing.T) {
	n := New()
	h := n.NewHost("lonely")
	defer func() {
		if recover() == nil {
			t.Error("Send on unconnected host did not panic")
		}
	}()
	h.Send(&Packet{Type: Data, Size: MSS})
}

func TestSwitchNoRoutePanics(t *testing.T) {
	n := New()
	sw := n.NewSwitch("S")
	defer func() {
		if recover() == nil {
			t.Error("forwarding without a route did not panic")
		}
	}()
	sw.Receive(&Packet{Type: Data, Size: MSS, Dst: 99})
}

// TestAddRouteInterleaved: route sets share one arena per switch, and a
// set keeps every port however AddRoute calls for different
// destinations interleave and however often the arena reallocates. A
// returned set has no spare capacity, so a caller's append copies it
// rather than writing over its neighbour in the arena.
func TestAddRouteInterleaved(t *testing.T) {
	const hosts, fanout = 5, 7
	n := New()
	sw := n.NewSwitch("S")
	var dsts []*Host
	for i := 0; i < hosts; i++ {
		dsts = append(dsts, n.NewHost("H"))
	}
	up := n.NewSwitch("U")
	var ports []*Port
	for i := 0; i < fanout; i++ {
		ports = append(ports, n.AttachPort(sw, up, sim.Gbps, sim.Microsecond, nil))
	}
	want := make([][]*Port, hosts)
	add := func(d, p int) {
		sw.AddRoute(dsts[d].ID(), ports[p])
		want[d] = append(want[d], ports[p])
	}
	for p := 0; p < 3; p++ { // back to back, as InstallShortestPathRoutes adds them
		add(0, p)
	}
	for p := 0; p < fanout; p++ { // round-robin: every call returns to an earlier set
		for d := 0; d < hosts; d++ {
			add(d, (p+d)%fanout)
		}
	}
	for d, h := range dsts {
		got := sw.Routes(h.ID())
		if len(got) != len(want[d]) || cap(got) != len(got) {
			t.Fatalf("dst %d: %d routes with capacity %d, want %d with none spare", d, len(got), cap(got), len(want[d]))
		}
		for i := range got {
			if got[i] != want[d][i] {
				t.Errorf("dst %d route %d = %v, want %v", d, i, got[i], want[d][i])
			}
		}
	}
	_ = append(sw.Routes(dsts[0].ID()), ports[0])
	if got := sw.Routes(dsts[1].ID()); got[0] != want[1][0] {
		t.Error("appending to one destination's routes overwrote another's")
	}
	if sw.Routes(up.ID()) != nil || sw.Routes(-1) != nil || sw.Routes(99) != nil {
		t.Error("Routes for a destination without any should be nil")
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	// Two equal-cost paths: the same flow must always take the same one.
	n := New()
	a := n.NewHost("A")
	b := n.NewHost("B")
	leaf := n.NewSwitch("leaf")
	core1 := n.NewSwitch("core1")
	core2 := n.NewSwitch("core2")
	leaf2 := n.NewSwitch("leaf2")
	rate, delay := 10*sim.Gbps, sim.Microsecond
	q := func() Queue { return NewDropTail(128) }

	n.Connect(a, leaf, rate, delay, q(), q())
	up1, _ := n.Connect(leaf, core1, rate, delay, q(), q())
	up2, _ := n.Connect(leaf, core2, rate, delay, q(), q())
	d1, _ := n.Connect(core1, leaf2, rate, delay, q(), q())
	d2, _ := n.Connect(core2, leaf2, rate, delay, q(), q())
	down, _ := n.Connect(leaf2, b, rate, delay, q(), q())
	leaf.AddRoute(b.ID(), up1)
	leaf.AddRoute(b.ID(), up2)
	core1.AddRoute(b.ID(), d1)
	core2.AddRoute(b.ID(), d2)
	leaf2.AddRoute(b.ID(), down)

	got := 0
	b.Handler = func(pkt *Packet) { got++ }

	const flows = 512
	perFlowPath := make(map[FlowID]uint64)
	for f := FlowID(0); f < flows; f++ {
		f := f
		n.Engine.Schedule(sim.Time(f)*10*sim.Microsecond, func() {
			before1, before2 := up1.TxPackets, up2.TxPackets
			_ = before1
			_ = before2
			for i := int32(0); i < 3; i++ {
				a.Send(&Packet{Flow: f, Type: Data, Seq: i, Size: 100, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
			}
			perFlowPath[f] = ecmpHash(f, leaf.ID(), 0) % 2
		})
	}
	n.Run(sim.Second)
	if got != flows*3 {
		t.Fatalf("delivered %d, want %d", got, flows*3)
	}
	// Both uplinks should carry a non-trivial share of flows.
	if up1.TxPackets == 0 || up2.TxPackets == 0 {
		t.Errorf("ECMP did not spread: up1=%d up2=%d", up1.TxPackets, up2.TxPackets)
	}
	frac := float64(up1.TxPackets) / float64(up1.TxPackets+up2.TxPackets)
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("ECMP badly unbalanced: up1 fraction %.2f", frac)
	}
}

func TestECMPHashStability(t *testing.T) {
	for f := FlowID(0); f < 100; f++ {
		if ecmpHash(f, 7, 0) != ecmpHash(f, 7, 0) {
			t.Fatal("ecmpHash not deterministic")
		}
	}
	// Different switches should choose differently for at least some flows.
	diff := 0
	for f := FlowID(0); f < 100; f++ {
		if ecmpHash(f, 1, 0)%2 != ecmpHash(f, 2, 0)%2 {
			diff++
		}
	}
	if diff == 0 {
		t.Error("hash is polarized across switches")
	}
	// A salt rotation must move some flows to new paths; repeating the
	// same salt must reproduce the same assignment.
	moved := 0
	for f := FlowID(0); f < 100; f++ {
		if ecmpHash(f, 1, 0)%2 != ecmpHash(f, 1, 0xdeadbeef)%2 {
			moved++
		}
		if ecmpHash(f, 1, 0xdeadbeef) != ecmpHash(f, 1, 0xdeadbeef) {
			t.Fatal("salted hash not deterministic")
		}
	}
	if moved == 0 {
		t.Error("rehash salt did not move any flow")
	}
}

func TestPortMonitorUtilization(t *testing.T) {
	n, a, b, sw := pair(t, 10*sim.Gbps, 0, nil)
	_ = a
	mon := Attach(sw.Ports()[1]) // switch egress toward B
	nicMon := Attach(a.NIC())    // the backlog builds at the sender NIC
	b.Handler = func(pkt *Packet) {}
	// Send 100 packets back-to-back: the egress should be ~100% utilized
	// while they drain.
	n.Engine.Schedule(0, func() {
		for i := int32(0); i < 100; i++ {
			a.Send(&Packet{Flow: 1, Type: Data, Seq: i, Size: MSS, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
		}
	})
	// Window covering exactly the drain period of the switch egress.
	n.Run(sim.Second)
	drainStart := sim.Time(1200) // first packet reaches switch
	drainEnd := drainStart + 100*1200
	_ = drainEnd
	u := float64(mon.WindowBytes()) * 8 / (float64(10*sim.Gbps) * (100 * 1200) / 1e9)
	if u < 0.99 || u > 1.01 {
		t.Errorf("utilization during drain = %.3f, want ~1", u)
	}
	if mon.TotalBytes() != 100*MSS {
		t.Errorf("TotalBytes = %d, want %d", mon.TotalBytes(), 100*MSS)
	}
	if nicMon.MaxQueueLen < 50 {
		t.Errorf("NIC MaxQueueLen = %d, expected a large backlog", nicMon.MaxQueueLen)
	}
	// The switch egress never builds a queue: it drains at its input rate.
	if mon.MaxQueueLen > 2 {
		t.Errorf("switch MaxQueueLen = %d, expected near-zero", mon.MaxQueueLen)
	}
}

func TestPortMonitorWindowReset(t *testing.T) {
	_, _, _, sw := pair(t, 10*sim.Gbps, sim.Microsecond, nil)
	m := Attach(sw.Ports()[1])
	m.noteTx(1250)
	if m.WindowBytes() != 1250 {
		t.Fatalf("WindowBytes = %d", m.WindowBytes())
	}
	// 1250 bytes in 1µs at 10Gbps = exactly capacity.
	if u := m.Utilization(sim.Microsecond); u < 0.99 || u > 1.01 {
		t.Errorf("Utilization = %.3f, want 1", u)
	}
	m.ResetWindow(sim.Microsecond)
	if m.WindowBytes() != 0 {
		t.Error("ResetWindow did not clear window")
	}
	if m.TotalBytes() != 1250 {
		t.Error("ResetWindow must not clear totals")
	}
}

func TestNetworkDeterminism(t *testing.T) {
	run := func() (int64, int64, uint64) {
		n, a, b, _ := pair(t, 10*sim.Gbps, 5*sim.Microsecond, func(*Slabs) Queue { return NewDropTail(8) })
		rng := sim.NewRNG(11)
		b.Handler = func(pkt *Packet) {}
		for i := 0; i < 500; i++ {
			at := sim.Time(rng.Int63n(int64(sim.Millisecond)))
			n.Engine.ScheduleAt(at, func() {
				a.Send(&Packet{Flow: FlowID(rng.Int63()), Type: Data, Size: MSS, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
			})
		}
		n.Run(sim.Second)
		return n.Delivered(), n.Dropped(), n.Engine.Executed
	}
	d1, x1, e1 := run()
	d2, x2, e2 := run()
	if d1 != d2 || x1 != x2 || e1 != e2 {
		t.Errorf("runs diverged: (%d,%d,%d) vs (%d,%d,%d)", d1, x1, e1, d2, x2, e2)
	}
}

func TestHopCounting(t *testing.T) {
	n, a, b, _ := pair(t, 10*sim.Gbps, 0, nil)
	var hops int8
	b.Handler = func(pkt *Packet) { hops = pkt.Hops }
	n.Engine.Schedule(0, func() {
		a.Send(&Packet{Flow: 1, Type: Data, Size: MSS, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
	})
	n.Run(sim.Second)
	if hops != 2 {
		t.Errorf("Hops = %d, want 2 (host link + switch link)", hops)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Flow: 3, Type: Grant, Seq: 7, Size: 64, Src: 1, Dst: 2, Echo: true}
	if got := p.String(); got != "GRANT f3 #7 64B 1->2 ECHO" {
		t.Errorf("String() = %q", got)
	}
	if Data.String() != "DATA" || PacketType(99).String() != "PacketType(99)" {
		t.Error("PacketType.String mismatch")
	}
}
