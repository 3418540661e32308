package core

import (
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// overlay is cfg's switch queues, host queues and marker, for a topo
// builder.
func overlay(cfg Config) topo.Overlay {
	return topo.Overlay{SwitchQueue: cfg.SwitchQueue, HostQueue: HostQueue, Marker: cfg.NewMarker}
}

// newFan builds a Fig-2-style fan with AMRT queues and markers, and no
// collector, so a flow's completion appends to nothing.
func newFan(pairs int) (*topo.Fabric, *Protocol) {
	cfg := DefaultConfig()
	s := topo.Fan(pairs).Build(overlay(cfg))
	cfg.RTT = 100 * sim.Microsecond
	return s, New(s.Net, cfg)
}

func TestTinyFlowSingleBlindWindow(t *testing.T) {
	s, p := newFan(1)
	f := p.AddFlow(1, s.Senders[0], s.Receivers[0], 3000, 0) // 2 packets
	s.Net.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	// Entirely inside the blind window: no grants should be needed.
	if p.GrantsSent != 0 {
		t.Errorf("tiny flow triggered %d grants", p.GrantsSent)
	}
	// FCT ≈ one-way propagation (50µs) + 2 packet serializations.
	if f.FCT() > 60*sim.Microsecond {
		t.Errorf("tiny flow FCT = %v", f.FCT())
	}
}

func TestGrantPerPacketAccounting(t *testing.T) {
	s, p := newFan(1)
	const size = 2_000_000
	f := p.AddFlow(1, s.Senders[0], s.Receivers[0], size, 0)
	s.Net.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	// Every packet beyond the blind window is granted; grants may carry
	// 1 or 2 credits, so grant count is in [ungranted/2, ungranted].
	blind := int64(p.BlindPkts(f))
	ungranted := int64(f.NPkts) - blind
	if p.GrantsSent < ungranted/2 || p.GrantsSent > ungranted {
		t.Errorf("GrantsSent = %d for %d post-blind packets", p.GrantsSent, ungranted)
	}
	if p.RecoveryGrants != 0 {
		t.Errorf("unexpected recovery grants: %d", p.RecoveryGrants)
	}
}

func TestSaturatedFlowMostlyUnmarked(t *testing.T) {
	s, p := newFan(1)
	f := p.AddFlow(1, s.Senders[0], s.Receivers[0], 5_000_000, 0)
	s.Net.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	// A single flow saturates its own path: after the ramp, packets are
	// back-to-back and should not keep the anti-ECN mark.
	if p.GrantsSent > 0 && float64(p.MarkedGrants)/float64(p.GrantsSent) > 0.1 {
		t.Errorf("%d/%d grants marked on a saturated path", p.MarkedGrants, p.GrantsSent)
	}
}

func TestAntiECNRampFillsIdleLink(t *testing.T) {
	// The distilled §4 mechanism: a flow starting with a tiny window on
	// an idle path leaves inter-packet gaps larger than one MSS, so
	// every grant comes back marked and the window doubles each RTT. A
	// conservative protocol would stay at W=8 forever (1 packet per
	// 12.5µs = 9.6% utilization); AMRT must converge to line rate.
	cfg := DefaultConfig()
	cfg.BlindWindow = 8
	s := topo.Fan(1).Build(overlay(cfg))
	cfg.RTT = 100 * sim.Microsecond
	p := New(s.Net, cfg)
	f := p.AddFlow(1, s.Senders[0], s.Receivers[0], 8_000_000, 0)
	s.Net.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if p.MarkedGrants == 0 {
		t.Fatal("no marked grants on an under-utilized path")
	}
	// Stuck at W=8 the flow would take 5334/8 × 100µs ≈ 67ms; at line
	// rate ~6.5ms. Require the ramp to get most of the way there.
	if fct := f.FCT(); fct > 10*sim.Millisecond {
		t.Errorf("FCT = %v: anti-ECN ramp failed to fill the idle link", fct)
	}
}

func TestDynamicTrafficKeepsLinkBusy(t *testing.T) {
	// Four flows share the fan bottleneck and finish at different
	// times; AMRT must keep the bottleneck near-full until the last
	// flow is done (Fig. 2's failure mode for conservative protocols).
	s, p := newFan(4)
	mon := netsim.Attach(s.Bottlenecks[0])
	sizes := []int64{1_000_000, 2_000_000, 4_000_000, 12_000_000}
	flows := make([]*transport.Flow, 4)
	for i, sz := range sizes {
		flows[i] = p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[i], sz, 0)
	}
	s.Net.Run(sim.Second)
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("%v did not complete", f)
		}
	}
	last := flows[3].End
	// Total 19MB over a 10G link: lower bound 15.2ms. A conservative
	// protocol stuck at the initial fair share would need 4×9.6ms=38ms
	// for the last flow alone.
	// AMRT's clumped self-clock fills consecutive vacancies at the
	// paper's worst-case rate (Eq. 5: one packet per RTT), so demand
	// >0.78 here; a conservative protocol stuck at the initial fair
	// share would sit near 0.55.
	util := float64(mon.TotalBytes()) * 8 / (float64(10*sim.Gbps) * last.Seconds())
	if util < 0.78 {
		t.Errorf("bottleneck utilization until last completion = %.2f, want >0.78", util)
	}
	if last > 20*sim.Millisecond {
		t.Errorf("last flow finished at %v, want <20ms", last)
	}
}

func TestIncastLossRecovery(t *testing.T) {
	// 8 synchronized senders blast their blind windows into one
	// receiver: the 8-packet data cap must drop most of it and the
	// timeout path must still complete every flow.
	cfg := DefaultConfig()
	s := topo.Fan(8).Build(overlay(cfg))
	cfg.RTT = 100 * sim.Microsecond
	p := New(s.Net, cfg)
	var flows []*transport.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[0], 300_000, 0))
	}
	s.Net.Run(2 * sim.Second)
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("%v did not complete under incast", f)
		}
	}
	if s.Net.Dropped() == 0 {
		t.Error("expected drops at the 8-packet data cap")
	}
	if p.RecoveryGrants == 0 {
		t.Error("expected timeout-driven recovery grants")
	}
}

func TestQueueStaysBounded(t *testing.T) {
	s, p := newFan(4)
	mon := netsim.Attach(s.Bottlenecks[0])
	for i := 0; i < 4; i++ {
		p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[i], 4_000_000, 0)
	}
	s.Net.Run(sim.Second)
	// Control band + 8-packet data cap: the egress queue must never
	// exceed the configured caps.
	if mon.MaxQueueLen > 8+CtrlQueueCap {
		t.Errorf("bottleneck queue reached %d packets", mon.MaxQueueLen)
	}
}

func TestUnresponsiveFlowDoesNotBlockOthers(t *testing.T) {
	s, p := newFan(2)
	dead := p.AddUnresponsiveFlow(1, s.Senders[0], s.Receivers[0], 1_000_000, 0)
	live := p.AddFlow(2, s.Senders[1], s.Receivers[1], 1_000_000, 0)
	s.Net.Run(100 * sim.Millisecond)
	if dead.Done {
		t.Error("unresponsive flow cannot complete")
	}
	if !live.Done {
		t.Fatal("live flow blocked by unresponsive one")
	}
	if live.FCT() > 2*sim.Millisecond {
		t.Errorf("live flow FCT = %v", live.FCT())
	}
}

func TestMultiBottleneckReclaim(t *testing.T) {
	// Fig-1 shape: f0 crosses both bottlenecks, f1 shares the first.
	// When f2/f3 squeeze f0 at the second bottleneck, f1 must take over
	// the released first-bottleneck bandwidth.
	cfg := DefaultConfig()
	s := topo.Chain().Build(overlay(cfg))
	cfg.RTT = 100 * sim.Microsecond
	col := stats.NewFCTCollector()
	cfg.Collector = col
	p := New(s.Net, cfg)
	mon := netsim.Attach(s.Bottlenecks[0])

	p.AddFlow(1, s.Senders[0], s.Receivers[0], 20_000_000, 0)                 // f0 both bottlenecks
	f1 := p.AddFlow(2, s.Senders[1], s.Receivers[1], 50_000_000, 0)           // f1 first bottleneck
	p.AddFlow(3, s.Senders[2], s.Receivers[2], 20_000_000, sim.Millisecond)   // f2 second bottleneck
	p.AddFlow(4, s.Senders[3], s.Receivers[3], 20_000_000, 3*sim.Millisecond) // f3 second bottleneck
	_ = f1

	// Measure first-bottleneck utilization between 4ms and 8ms, when f0
	// is squeezed to ~1/3 at the second bottleneck.
	var util float64
	s.Net.Engine.ScheduleAt(4*sim.Millisecond, func() { mon.ResetWindow(4 * sim.Millisecond) })
	s.Net.Engine.ScheduleAt(8*sim.Millisecond, func() { util = mon.Utilization(8 * sim.Millisecond) })
	s.Net.Run(sim.Second)
	if util < 0.9 {
		t.Errorf("first bottleneck utilization %.2f during squeeze, want >0.9 (AMRT reclaims)", util)
	}
}

func TestMarkedGrantEchoImpliesCE(t *testing.T) {
	// Every grant with ECN-Echo set must have been triggered by a data
	// packet that still carried CE at the receiver. Intercept both
	// directions of one under-utilized flow and cross-check.
	cfg := DefaultConfig()
	cfg.BlindWindow = 8
	s := topo.Fan(1).Build(overlay(cfg))
	cfg.RTT = 100 * sim.Microsecond
	ceArrivals := 0
	cfg.OnData = func(f *transport.Flow, pkt *netsim.Packet) {
		if pkt.CE {
			ceArrivals++
		}
	}
	p := New(s.Net, cfg)
	echoed := 0
	f := p.AddFlow(1, s.Senders[0], s.Receivers[0], 4_000_000, 0)
	orig := s.Senders[0].Handler
	s.Senders[0].Handler = func(pkt *netsim.Packet) {
		if pkt.Type == netsim.Grant && pkt.Echo {
			echoed++
		}
		orig(pkt)
	}
	s.Net.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if echoed == 0 {
		t.Fatal("ramp scenario produced no marked grants")
	}
	if echoed > ceArrivals {
		t.Errorf("%d marked grants but only %d CE arrivals", echoed, ceArrivals)
	}
	if int64(echoed) != p.MarkedGrants {
		t.Errorf("observed %d marked grants, protocol counted %d", echoed, p.MarkedGrants)
	}
}

func TestRecoveryPacedNoDuplicateStorm(t *testing.T) {
	// Force heavy blind loss (incast) and verify recovery does not
	// duplicate wildly: total data deliveries (first + dup) stay within
	// 1.5× the payload packet count.
	cfg := DefaultConfig()
	s := topo.Fan(8).Build(overlay(cfg))
	cfg.RTT = 100 * sim.Microsecond
	p := New(s.Net, cfg)
	var flows []*transport.Flow
	var totalPkts int64
	for i := 0; i < 8; i++ {
		f := p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[0], 400_000, 0)
		flows = append(flows, f)
		totalPkts += int64(f.NPkts)
	}
	s.Net.Run(5 * sim.Second)
	for _, f := range flows {
		if !f.Done {
			t.Fatal("incast flow incomplete")
		}
	}
	delivered := s.Receivers[0].RxPackets // includes control + duplicates
	if delivered > 3*totalPkts {
		t.Errorf("receiver saw %d packets for %d payload packets: duplicate storm", delivered, totalPkts)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.DataQueueCap != 8 || c.GrantBurst != 2 || c.GapFactor != 1 {
		t.Errorf("defaults wrong: %+v", c)
	}
	q := Config{}.SwitchQueue(nil).(*netsim.PriorityQueue)
	// Data band capped at 8.
	for i := 0; i < 8; i++ {
		if !q.Enqueue(&netsim.Packet{Type: netsim.Data, Prio: netsim.PrioData, Size: netsim.MSS}, 0) {
			t.Fatal("data rejected below cap")
		}
	}
	if q.Enqueue(&netsim.Packet{Type: netsim.Data, Prio: netsim.PrioData, Size: netsim.MSS}, 0) {
		t.Error("9th data packet accepted above the 8-packet cap")
	}
}

func TestAddFlowValidation(t *testing.T) {
	s, p := newFan(1)
	defer func() {
		if recover() == nil {
			t.Error("zero-size flow did not panic")
		}
	}()
	p.AddFlow(1, s.Senders[0], s.Receivers[0], 0, 0)
}

// TestLateRecoveryGrantRetransmits: the sender side does not end with
// the flow, as the receiver record does (TestConformanceRecordEndsWithFlow
// in internal/experiment). After a lossy incast every flow's sender
// lookup still finds it, and a late recovery grant for a completed flow
// still retransmits once, answered by nothing.
func TestLateRecoveryGrantRetransmits(t *testing.T) {
	s, p := newFan(8)
	var flows []*transport.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[0], 300_000, 0))
	}
	s.Net.Run(sim.Forever)
	if s.Net.Dropped() == 0 || p.RecoveryGrants == 0 {
		t.Fatalf("incast was not lossy: %d drops, %d recovery grants", s.Net.Dropped(), p.RecoveryGrants)
	}
	for _, f := range flows {
		if !f.Done || p.Sender(f.ID) != f {
			t.Fatalf("%v: done %v, sender lookup %v; want done and kept", f, f.Done, p.Sender(f.ID))
		}
	}
	f := flows[3]
	injected, built, grants := s.Net.Injected(), p.DataPktsBuilt, p.GrantsSent
	f.Src.Receive(p.NewCtrl(netsim.Grant, f, 3, true))
	s.Net.Run(sim.Forever)
	if s.Net.Injected() != injected+1 || p.DataPktsBuilt != built+1 || p.GrantsSent != grants {
		t.Errorf("a late recovery grant: injected %d→%d, data built %d→%d, grants %d→%d; want one retransmission, unanswered",
			injected, s.Net.Injected(), built, p.DataPktsBuilt, grants, p.GrantsSent)
	}
}

// TestRecoveryAllocs: once warm, a full loss-recovery cycle allocates
// nothing. Each cycle takes a receiver record whose flow lost its whole
// blind window: the timeout queues the holes on the receiving host's
// recovery pacer (more than RecoveryCap, so over two ticks), the pacer
// reissues the grants, the retransmissions arrive, and the record ends
// with the flow. The pacer queue's blocks and the reissue times' chunks
// go back to the instance's pools, and the next cycle reuses them.
func TestRecoveryAllocs(t *testing.T) {
	cfg := DefaultConfig()
	s := topo.Fan(1).Build(overlay(cfg))
	cfg.RTT = 100 * sim.Microsecond
	p := New(s.Net, cfg)
	const runs, pkts = 50, 20
	var recs []*receiver
	for id := netsim.FlowID(1); id <= runs+1; id++ { // AllocsPerRun warms up with one more
		f := p.AddPending(id, s.Senders[0], s.Receivers[0], pkts*netsim.MSS, false)
		p.Adopt(f)
		// As if the blind window had been sent and every packet lost.
		f.SenderStarted, f.SendNext = true, f.NPkts
		r := transport.Receiver(&p.Kernel, &p.receivers, id, p.newReceiver)
		r.timer.Cancel() // armed by its cycle
		recs = append(recs, r)
	}
	s.Net.Run(p.Now() + 10*cfg.RTT) // the records' Heard signals
	next, unfinished := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		r := recs[next]
		next++
		r.timer.Arm()
		s.Net.Run(p.Now() + 40*cfg.RTT)
		if !r.f.Done {
			unfinished++
		}
	})
	if unfinished > 0 {
		t.Fatalf("%d of %d flows did not recover", unfinished, runs+1)
	}
	if want := int64(runs+1) * pkts; p.RecoveryGrants != want {
		t.Errorf("%d recovery grants, want one per lost packet, %d", p.RecoveryGrants, want)
	}
	if p.receivers.Len() != 0 {
		t.Errorf("%d receiver records outlive their flows", p.receivers.Len())
	}
	if allocs != 0 {
		t.Errorf("a recovery cycle: %.1f allocs, want 0", allocs)
	}
}
