package phost

import (
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// overlay is pHost's switch and host queues, for a topo builder.
var overlay = topo.Overlay{SwitchQueue: SwitchQueue, HostQueue: HostQueue}

func newFan(pairs int) (*topo.Fabric, *Protocol, *stats.FCTCollector) {
	var cfg transport.Config
	s := topo.Fan(pairs).Build(overlay)
	col := stats.NewFCTCollector()
	cfg.Collector = col
	cfg.RTT = 100 * sim.Microsecond
	p := New(s.Net, cfg)
	return s, p, col
}

func TestSingleFlowCompletes(t *testing.T) {
	s, p, col := newFan(1)
	f := p.AddFlow(1, s.Senders[0], s.Receivers[0], 1_000_000, 0)
	s.Net.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if col.Count() != 1 {
		t.Fatal("collector missed the flow")
	}
	if fct := f.FCT(); fct < 800*sim.Microsecond || fct > 2*sim.Millisecond {
		t.Errorf("FCT = %v, want ~0.9-2ms", fct)
	}
	if s.Net.Dropped() != 0 {
		t.Errorf("%d drops on an uncontended path", s.Net.Dropped())
	}
}

func TestTokenPerPacket(t *testing.T) {
	s, p, _ := newFan(1)
	f := p.AddFlow(1, s.Senders[0], s.Receivers[0], 2_000_000, 0)
	s.Net.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	// One token per packet beyond the free (blind) window.
	want := int64(f.NPkts) - int64(p.BlindPkts(f))
	if p.TokensSent != want {
		t.Errorf("TokensSent = %d, want %d", p.TokensSent, want)
	}
	if p.TokensExpired != 0 {
		t.Errorf("TokensExpired = %d on a clean path", p.TokensExpired)
	}
}

func TestConservativeNoRampFromSmallWindow(t *testing.T) {
	// The defining contrast with AMRT: a flow whose clock was seeded
	// with a tiny window stays at that rate — arrival-clocked tokens
	// never exceed one per arrival, so the window cannot grow.
	var cfg transport.Config
	cfg.BlindWindow = 8
	s := topo.Fan(1).Build(overlay)
	cfg.RTT = 100 * sim.Microsecond
	p := New(s.Net, cfg)
	f := p.AddFlow(1, s.Senders[0], s.Receivers[0], 2_000_000, 0)
	s.Net.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	// 1334 packets at 8 per ~100µs RTT ≈ 16.7ms. AMRT does this in
	// ~1.2ms (see core tests); pHost must NOT.
	if fct := f.FCT(); fct < 12*sim.Millisecond {
		t.Errorf("FCT = %v: pHost unexpectedly grabbed spare bandwidth", fct)
	}
}

func TestSRPTPreemptsAtSharedReceiver(t *testing.T) {
	// Fig. 11(a): a short flow to the same receiver takes the whole
	// link; the long flow resumes after it completes.
	var cfg transport.Config
	s := topo.Fan(2).Build(overlay)
	cfg.RTT = 100 * sim.Microsecond
	p := New(s.Net, cfg)
	long := p.AddFlow(1, s.Senders[0], s.Receivers[0], 20_000_000, 0)
	short := p.AddFlow(2, s.Senders[1], s.Receivers[0], 2_000_000, 2*sim.Millisecond)
	s.Net.Run(sim.Second)
	if !short.Done || !long.Done {
		t.Fatal("flows did not complete")
	}
	// The short flow gets the receiver's full attention: its FCT should
	// be close to its solo time (~1.7ms incl. blind start), far below
	// fair-share time (~3.4ms).
	if fct := short.FCT(); fct > 4*sim.Millisecond {
		t.Errorf("short flow FCT = %v: SRPT did not preempt", fct)
	}
	if long.End < short.End {
		t.Error("long flow should finish after the short one")
	}
}

func TestUnresponsiveSenderBlacklisted(t *testing.T) {
	// An announced-but-silent flow wastes the receiver's tokens only
	// until the 3×RTT timeout blacklists it; a live flow to the same
	// receiver must still complete quickly.
	s, p, _ := newFan(2)
	dead := p.AddUnresponsiveFlow(1, s.Senders[0], s.Receivers[0], 10_000, 0)
	live := p.AddFlow(2, s.Senders[1], s.Receivers[0], 2_000_000, 0)
	s.Net.Run(200 * sim.Millisecond)
	if dead.Done {
		t.Error("unresponsive flow cannot complete")
	}
	if !live.Done {
		t.Fatal("live flow starved by unresponsive sender")
	}
	if p.TokensExpired == 0 {
		t.Error("expected expired tokens for the unresponsive sender")
	}
	if fct := live.FCT(); fct > 10*sim.Millisecond {
		t.Errorf("live flow FCT = %v", fct)
	}
}

func TestLossRecoveryViaExpiry(t *testing.T) {
	// Incast losses at the 128-packet buffer must be recovered (slowly)
	// through token expiry.
	var cfg transport.Config
	s := topo.Fan(8).Build(overlay)
	cfg.RTT = 100 * sim.Microsecond
	p := New(s.Net, cfg)
	var flows []*transport.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[0], 500_000, 0))
	}
	s.Net.Run(5 * sim.Second)
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("%v did not complete under incast", f)
		}
	}
	if s.Net.Dropped() == 0 {
		t.Error("expected incast drops")
	}
}

func TestArrivalClockedNoStandingAggression(t *testing.T) {
	// Four flows to four different receivers share the bottleneck; with
	// arrival clocking the token rate can never exceed the aggregate
	// arrival rate, so after the blind-start transient the switch queue
	// should not keep refilling (bounded drops).
	s, p, _ := newFan(4)
	for i := 0; i < 4; i++ {
		p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[i], 4_000_000, 0)
	}
	s.Net.Run(sim.Second)
	// Drops come from the blind-start overload plus expiry-driven
	// retries bouncing off the standing queue it leaves behind — but
	// never from token emission outpacing arrivals, which would be
	// tens of thousands of drops on 4MB flows.
	if s.Net.Dropped() > 4000 {
		t.Errorf("drops = %d, token clock is outpacing arrivals", s.Net.Dropped())
	}
	for _, f := range p.OrderedFlows() {
		if !f.Done {
			t.Errorf("flow %d did not complete", f.ID)
		}
	}
}

func TestTokenPacingRespectsDownlinkRate(t *testing.T) {
	// Tokens from one receiver may never be emitted faster than one per
	// MSS serialization time. Jitter is disabled so arrival spacing at
	// the sender equals emission spacing (64-byte control packets can
	// reorder under jitter, which would corrupt the measurement).
	var cfg transport.Config
	sc := topo.Fan(1)
	sc.Jitter = 0
	s := sc.Build(overlay)
	cfg.RTT = 100 * sim.Microsecond
	p := New(s.Net, cfg)
	f := p.AddFlow(1, s.Senders[0], s.Receivers[0], 3_000_000, 0)
	var arrivals []sim.Time
	orig := s.Senders[0].Handler
	s.Senders[0].Handler = func(pkt *netsim.Packet) {
		if pkt.Type == netsim.Token {
			arrivals = append(arrivals, s.Net.Engine.Now())
		}
		orig(pkt)
	}
	s.Net.Run(sim.Second)
	if !f.Done {
		t.Fatal("flow did not complete")
	}
	if len(arrivals) < 100 {
		t.Fatalf("only %d tokens observed", len(arrivals))
	}
	minSpacing := sim.Forever
	for i := 1; i < len(arrivals); i++ {
		if d := arrivals[i] - arrivals[i-1]; d < minSpacing {
			minSpacing = d
		}
	}
	// Pace is exactly 1200ns at 10G with jitter off.
	if minSpacing < 1200*sim.Nanosecond {
		t.Errorf("tokens spaced %v apart: pacer violated", minSpacing)
	}
}

func TestPHostDeterminism(t *testing.T) {
	run := func() (sim.Time, int64, uint64) {
		s, p, _ := newFan(3)
		var last *transport.Flow
		for i := 0; i < 3; i++ {
			last = p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[i], 2_000_000, sim.Time(i)*30*sim.Microsecond)
		}
		s.Net.Run(sim.Second)
		return last.End, p.TokensSent, s.Net.Engine.Executed
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Error("pHost run not deterministic")
	}
}

// TestReceiverRecordEndsWithFlow: a receiver record — bitmaps, pending
// timers — is dropped when its flow completes, and what arrives
// afterwards (a duplicate data packet, a late RTS) finds the flow Done:
// no record is rebuilt, nothing is sent, nothing is scheduled.
func TestReceiverRecordEndsWithFlow(t *testing.T) {
	s, p, _ := newFan(8)
	var flows []*transport.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[0], 300_000, 0))
	}
	s.Net.Run(sim.Forever)
	if s.Net.Dropped() == 0 || p.TokensExpired == 0 {
		t.Fatalf("incast was not lossy: %d drops, %d expired tokens", s.Net.Dropped(), p.TokensExpired)
	}
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("%v did not complete", f)
		}
	}
	if p.receivers.Len() != 0 {
		t.Fatalf("%d receiver records outlive their flows", p.receivers.Len())
	}
	f := flows[3]
	events, injected, tokens := s.Net.Engine.Executed, s.Net.Injected(), p.TokensSent
	f.Dst.Receive(p.NewData(f, 0, netsim.PrioData))
	f.Dst.Receive(p.NewCtrl(netsim.RTS, f, -1, false))
	s.Net.Run(sim.Forever)
	if p.receivers.Len() != 0 {
		t.Error("a late packet rebuilt the receiver record of a finished flow")
	}
	if s.Net.Injected() != injected || p.TokensSent != tokens {
		t.Errorf("late packets were answered: injected %d→%d, tokens %d→%d", injected, s.Net.Injected(), tokens, p.TokensSent)
	}
	if s.Net.Engine.Executed != events {
		t.Errorf("late packets scheduled %d events", s.Net.Engine.Executed-events)
	}
}
