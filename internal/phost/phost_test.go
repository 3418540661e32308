package phost

import (
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// overlay is pHost's switch and host queues, for a topo builder.
var overlay = topo.Overlay{SwitchQueue: SwitchQueue, HostQueue: HostQueue}

// newFan is a fan of pairs with pHost and no collector, so a flow's
// completion appends to nothing.
func newFan(pairs int) (*topo.Fabric, *Protocol) {
	var cfg transport.Config
	s := topo.Fan(pairs).Build(overlay)
	cfg.RTT = 100 * sim.Microsecond
	return s, New(s.Net, cfg)
}

func TestTokenPerPacket(t *testing.T) {
	s, p := newFan(1)
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
	s, p := newFan(2)
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
	if s.Net.Dropped() == 0 || p.TokensExpired == 0 {
		t.Errorf("%d drops, %d expired tokens; want incast drops recovered by expiry", s.Net.Dropped(), p.TokensExpired)
	}
}

func TestArrivalClockedNoStandingAggression(t *testing.T) {
	// Four flows to four different receivers share the bottleneck; with
	// arrival clocking the token rate can never exceed the aggregate
	// arrival rate, so after the blind-start transient the switch queue
	// should not keep refilling (bounded drops).
	s, p := newFan(4)
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
