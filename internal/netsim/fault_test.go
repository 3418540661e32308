package netsim

import (
	"testing"

	"amrt/internal/sim"
)

func TestAdminDownParksAndResumes(t *testing.T) {
	n, a, b, _ := pair(t, 10*sim.Gbps, 0, nil)
	nic := a.NIC()
	delivered := 0
	b.Handler = func(pkt *Packet) { delivered++ }

	// A down NIC parks traffic in its own queue: hosts do not route, so
	// Send enqueues and the halted transmitter simply never drains.
	n.Engine.Schedule(0, func() { nic.SetAdminDown(true) })
	n.Engine.Schedule(sim.Microsecond, func() {
		for i := int32(0); i < 5; i++ {
			a.Send(&Packet{Flow: 1, Type: Data, Seq: i, Size: MSS, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
		}
	})
	n.Run(sim.Millisecond)
	if delivered != 0 {
		t.Fatalf("delivered %d while the NIC was down, want 0", delivered)
	}
	if !nic.AdminDown() {
		t.Fatal("AdminDown lost state")
	}
	if got := nic.Queue().Len(); got != 5 {
		t.Fatalf("parked %d packets, want 5", got)
	}
	if n.Dropped() != 0 {
		t.Fatalf("down port dropped %d packets; it must park them", n.Dropped())
	}

	n.Engine.ScheduleAt(2*sim.Millisecond, func() { nic.SetAdminDown(false) })
	n.Run(sim.Second)
	if delivered != 5 {
		t.Fatalf("delivered %d after recovery, want 5", delivered)
	}
}

func TestAdminDownFinishesInFlightPacket(t *testing.T) {
	n, a, b, sw := pair(t, 10*sim.Gbps, 0, nil)
	egress := sw.Ports()[1]
	delivered := 0
	b.Handler = func(pkt *Packet) { delivered++ }
	n.Engine.Schedule(0, func() {
		a.Send(&Packet{Flow: 1, Type: Data, Size: MSS, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
	})
	// The packet starts serializing on the switch egress at 1200ns; take
	// the port down mid-transmission. The packet is already on the wire
	// and must still arrive.
	n.Engine.ScheduleAt(1800, func() { egress.SetAdminDown(true) })
	n.Run(sim.Second)
	if delivered != 1 {
		t.Fatalf("in-flight packet was lost by SetAdminDown: delivered %d", delivered)
	}
}

// ecmpPairNet builds the two-path topology of
// TestECMPDeterministicPerFlow and returns its pieces.
func ecmpPairNet(t *testing.T) (n *Network, a, b *Host, up1, up2 *Port) {
	t.Helper()
	n = New()
	a = n.NewHost("A")
	b = n.NewHost("B")
	leaf := n.NewSwitch("leaf")
	core1 := n.NewSwitch("core1")
	core2 := n.NewSwitch("core2")
	leaf2 := n.NewSwitch("leaf2")
	rate, delay := 10*sim.Gbps, sim.Microsecond
	q := func() Queue { return NewDropTail(1024) }
	n.Connect(a, leaf, rate, delay, q(), q())
	up1, _ = n.Connect(leaf, core1, rate, delay, q(), q())
	up2, _ = n.Connect(leaf, core2, rate, delay, q(), q())
	d1, _ := n.Connect(core1, leaf2, rate, delay, q(), q())
	d2, _ := n.Connect(core2, leaf2, rate, delay, q(), q())
	down, _ := n.Connect(leaf2, b, rate, delay, q(), q())
	leaf.AddRoute(b.ID(), up1)
	leaf.AddRoute(b.ID(), up2)
	core1.AddRoute(b.ID(), d1)
	core2.AddRoute(b.ID(), d2)
	leaf2.AddRoute(b.ID(), down)
	return n, a, b, up1, up2
}

func TestECMPFailoverAndRestore(t *testing.T) {
	n, a, b, up1, up2 := ecmpPairNet(t)
	got := 0
	b.Handler = func(pkt *Packet) { got++ }

	send := func(count int) {
		for f := FlowID(0); f < FlowID(count); f++ {
			a.Send(&Packet{Flow: f, Type: Data, Size: 100, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
		}
	}
	// Phase 1: up1 down — every flow, including those hashed onto up1,
	// must fail over to up2 and arrive.
	n.Engine.Schedule(0, func() { up1.SetAdminDown(true); send(256) })
	n.Run(sim.Millisecond)
	if got != 256 {
		t.Fatalf("failover delivered %d/256", got)
	}
	if up1.TxPackets != 0 {
		t.Fatalf("down uplink transmitted %d packets", up1.TxPackets)
	}
	if up2.TxPackets != 256 {
		t.Fatalf("surviving uplink carried %d/256", up2.TxPackets)
	}
	if n.NoRouteDrops() != 0 {
		t.Fatalf("NoRouteDrops = %d with a live route available", n.NoRouteDrops())
	}

	// Phase 2: recovery — the hash must move flows back onto up1.
	got = 0
	n.Engine.ScheduleAt(2*sim.Millisecond, func() { up1.SetAdminDown(false); send(256) })
	n.Run(sim.Second)
	if got != 256 {
		t.Fatalf("post-recovery delivered %d/256", got)
	}
	if up1.TxPackets == 0 {
		t.Error("no flow moved back to the recovered uplink")
	}
	frac := float64(up1.TxPackets) / 256
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("post-recovery spread unbalanced: up1 fraction %.2f", frac)
	}
}

func TestAllRoutesDownCountsNoRouteDrops(t *testing.T) {
	n, a, b, up1, up2 := ecmpPairNet(t)
	got := 0
	b.Handler = func(pkt *Packet) { got++ }
	n.Engine.Schedule(0, func() {
		up1.SetAdminDown(true)
		up2.SetAdminDown(true)
		for f := FlowID(0); f < 10; f++ {
			a.Send(&Packet{Flow: f, Type: Data, Size: 100, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
		}
	})
	n.Run(sim.Second)
	if got != 0 {
		t.Fatalf("delivered %d with no live route", got)
	}
	if n.NoRouteDrops() != 10 {
		t.Errorf("NoRouteDrops = %d, want 10", n.NoRouteDrops())
	}
	if n.Dropped() != 10 {
		t.Errorf("NoRouteDrops must be included in Dropped: %d", n.Dropped())
	}
	if n.DroppedOfType(Data) != 10 {
		t.Errorf("per-type drop accounting missed no-route drops: %d", n.DroppedOfType(Data))
	}
}

func TestDegradedRateSlowsSerialization(t *testing.T) {
	n, a, b, sw := pair(t, 10*sim.Gbps, 0, nil)
	egress := sw.Ports()[1]
	var arrived sim.Time
	b.Handler = func(pkt *Packet) { arrived = n.Engine.Now() }
	n.Engine.Schedule(0, func() {
		egress.SetDegradedRate(sim.Gbps) // 10× slower on the switch hop
		a.Send(&Packet{Flow: 1, Type: Data, Size: MSS, Src: a.ID(), Dst: b.ID(), Prio: PrioData})
	})
	n.Run(sim.Second)
	// 1200ns at the host NIC (nominal) + 12000ns at the degraded egress.
	if want := sim.Time(1200 + 12000); arrived != want {
		t.Errorf("arrival at %v, want %v", arrived, want)
	}
	if egress.EffectiveRate() != sim.Gbps {
		t.Errorf("EffectiveRate = %v, want 1Gbps", egress.EffectiveRate())
	}
	egress.SetDegradedRate(0)
	if egress.EffectiveRate() != 10*sim.Gbps {
		t.Errorf("EffectiveRate after restore = %v, want nominal", egress.EffectiveRate())
	}
}

func TestLossyQueueCtrlDropProb(t *testing.T) {
	// With CtrlDropProb=0 (default) control packets always pass, even at
	// DropProb=1 — the historical sparing.
	spare := heap.NewLossy(NewDropTail(0), 1.0, 1)
	if !spare.Enqueue(&Packet{Type: Grant, Size: ControlSize}, 0) {
		t.Fatal("control packet dropped despite CtrlDropProb=0")
	}
	if spare.Enqueue(&Packet{Type: Data, Size: MSS}, 0) {
		t.Fatal("data packet passed despite DropProb=1")
	}

	// With CtrlDropProb=1 every control packet drops and is counted.
	strict := heap.NewLossy(NewDropTail(0), 0, 2)
	strict.CtrlDropProb = 1.0
	if strict.Enqueue(&Packet{Type: Grant, Size: ControlSize}, 0) {
		t.Fatal("control packet passed despite CtrlDropProb=1")
	}
	if !strict.Enqueue(&Packet{Type: Data, Size: MSS}, 0) {
		t.Fatal("data packet dropped despite DropProb=0")
	}
	if strict.Injected != 1 || strict.CtrlInjected != 1 {
		t.Errorf("Injected=%d CtrlInjected=%d, want 1/1", strict.Injected, strict.CtrlInjected)
	}
	// Trimmed data travels the control path and is spared the data draw.
	if !spare.Enqueue(&Packet{Type: Data, Trimmed: true, Size: ControlSize}, 0) {
		t.Error("trimmed header dropped by the data-loss draw")
	}
}

func TestGilbertElliottBurstsAndStationarity(t *testing.T) {
	run := func(seed int64) (injected, bursts int64) {
		q := heap.NewGilbertElliott(NewDropTail(0), 0.01, 0.25, 1.0, 0, seed)
		for i := 0; i < 20000; i++ {
			q.Enqueue(&Packet{Type: Data, Size: MSS}, 0)
		}
		return q.Injected, q.Bursts
	}
	inj1, b1 := run(7)
	inj2, b2 := run(7)
	if inj1 != inj2 || b1 != b2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", inj1, b1, inj2, b2)
	}
	if b1 == 0 {
		t.Fatal("no bursts occurred")
	}
	// Stationary bad fraction = 0.01/(0.01+0.25) ≈ 3.85%; with LossBad=1
	// the injected fraction should be near it.
	frac := float64(inj1) / 20000
	if frac < 0.02 || frac > 0.06 {
		t.Errorf("loss fraction %.4f far from stationary 0.0385", frac)
	}
	// Mean burst length = 1/PBadGood = 4 arrivals; losses must cluster.
	if mean := float64(inj1) / float64(b1); mean < 2 || mean > 8 {
		t.Errorf("mean drops per burst %.2f, want ≈4", mean)
	}

	// Control packets clock state but never drop.
	q := heap.NewGilbertElliott(NewDropTail(0), 0.5, 0.1, 1.0, 0, 3)
	for i := 0; i < 100; i++ {
		if !q.Enqueue(&Packet{Type: Grant, Size: ControlSize}, 0) {
			t.Fatal("GE queue dropped a control packet")
		}
	}
	if q.Bursts == 0 {
		t.Error("control arrivals did not clock state transitions")
	}
}

// TestGilbertElliottStationaryLossRate checks the model's long-run
// statistics, not just its mechanics: over a long seeded run the
// empirical data-packet loss rate must match the stationary loss
// probability
//
//	p = fBad·LossBad + (1−fBad)·LossGood,  fBad = ToBad/(ToBad+ToGood)
//
// within a tolerance a few standard deviations wide. The chain mixes
// fast (mean burst 1/ToGood arrivals), so 200k arrivals give a tight
// estimate; correlated drops inflate the variance versus a Bernoulli
// process, hence the generous 4σ-equivalent band.
func TestGilbertElliottStationaryLossRate(t *testing.T) {
	cases := []struct {
		toBad, toGood, lossBad, lossGood float64
	}{
		{0.005, 0.25, 0.5, 0},   // docs example: classic Gilbert
		{0.01, 0.1, 1.0, 0},     // hard bursts
		{0.02, 0.2, 0.8, 0.001}, // lossy good state too
	}
	const arrivals = 200000
	for _, c := range cases {
		q := heap.NewGilbertElliott(NewDropTail(0), c.toBad, c.toGood, c.lossBad, c.lossGood, 42)
		for i := 0; i < arrivals; i++ {
			q.Enqueue(&Packet{Type: Data, Size: MSS}, 0)
		}
		fBad := c.toBad / (c.toBad + c.toGood)
		want := fBad*c.lossBad + (1-fBad)*c.lossGood
		got := float64(q.Injected) / arrivals
		// Absolute floor guards the near-zero rates; 15% relative covers
		// burst-correlated variance at 200k samples for these parameters.
		tol := 0.15 * want
		if tol < 0.0015 {
			tol = 0.0015
		}
		if got < want-tol || got > want+tol {
			t.Errorf("GE(%v): empirical loss %.5f, stationary %.5f (tol %.5f)", c, got, want, tol)
		}
	}
}
