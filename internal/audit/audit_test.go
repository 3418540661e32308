package audit

import (
	"strings"
	"testing"

	"amrt/internal/core"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/transport"
)

// pairNet is two directly connected hosts on a fresh network.
func pairNet(qa netsim.Queue) (*netsim.Network, *netsim.Host, *netsim.Host) {
	n := netsim.New()
	a, b := n.NewHost("A"), n.NewHost("B")
	n.Connect(a, b, 10*sim.Gbps, sim.Microsecond, qa, nil)
	return n, a, b
}

// checkEvery ticks aud.Check every interval in the late band, the way
// the experiment runner audits a run.
func checkEvery(n *netsim.Network, aud *Auditor, interval sim.Time) {
	n.Engine.Every(interval, interval, sim.Forever, sim.SubObserver, func() bool {
		aud.Check()
		return true
	})
}

// TestCleanRunNoViolations drives a full AMRT transfer under continuous
// auditing with the default fail-fast (panic) behaviour: reaching the
// end proves every check passed.
func TestCleanRunNoViolations(t *testing.T) {
	n, a, b := pairNet(nil)
	p := core.New(n, core.Config{Config: transport.Config{RTT: 10 * sim.Microsecond}})
	f := p.AddFlow(1, a, b, 1<<20, 0)

	aud := New(n, p)
	checkEvery(n, aud, 5*sim.Microsecond)
	n.Run(5 * sim.Millisecond)

	if !f.Done || f.Outcome != transport.OutcomeCompleted {
		t.Fatalf("flow did not complete: done=%t outcome=%v", f.Done, f.Outcome)
	}
	if aud.Checks == 0 {
		t.Fatal("auditor never ran")
	}
	if aud.Violations != 0 {
		t.Fatalf("clean run produced %d violations", aud.Violations)
	}
}

// TestDoubleSendTripsGrantBudget injects unauthorized data sends — a
// sender transmitting beyond what grants permit — and expects the
// grant-budget invariant to trip with a dump naming the flow.
func TestDoubleSendTripsGrantBudget(t *testing.T) {
	n, a, b := pairNet(nil)
	p := core.New(n, core.Config{Config: transport.Config{RTT: 10 * sim.Microsecond}})
	f := p.AddFlow(1, a, b, 1<<20, 0)

	var got *Violation
	aud := New(n, p)
	aud.OnViolation = func(v *Violation) {
		if got == nil {
			got = v
		}
	}
	checkEvery(n, aud, 5*sim.Microsecond)

	// Mid-run, send enough ungranted duplicates of seq 0 to exhaust
	// whatever slack the ledger has, plus one.
	n.Engine.ScheduleAt(2*sim.Millisecond, func() {
		extra := p.GrantAuthority() - p.DataPacketsSent() + 1
		for i := int64(0); i < extra; i++ {
			f.Src.Send(p.NewData(f, 0, netsim.PrioData))
		}
	})
	n.Run(5 * sim.Millisecond)

	if got == nil {
		t.Fatal("double-send did not trip the auditor")
	}
	if got.Rule != "grant-budget" {
		t.Fatalf("tripped rule %q, want grant-budget (detail: %s)", got.Rule, got.Detail)
	}
	if !strings.Contains(got.Detail, "exceed grant authority") {
		t.Errorf("detail %q does not explain the budget breach", got.Detail)
	}
	if !strings.Contains(got.Dump, "flow 1 A->B") {
		t.Errorf("forensic dump does not name the offending flow:\n%s", got.Dump)
	}
	if !strings.Contains(got.Dump, "pending events:") {
		t.Errorf("forensic dump lacks the pending-event count:\n%s", got.Dump)
	}
}

// leakyQueue claims to accept every packet but silently discards every
// every-th one — a seeded accounting bug the per-port conservation
// check must catch.
type leakyQueue struct {
	netsim.Queue
	n, every int
}

func (l *leakyQueue) Enqueue(pkt *netsim.Packet, now sim.Time) bool {
	l.n++
	if l.n%l.every == 0 {
		return true // swallowed: accepted but never queued
	}
	return l.Queue.Enqueue(pkt, now)
}

// TestPacketLeakTripsPortConservation seeds a queue that loses packets
// without accounting for them and expects the per-port conservation
// invariant to trip, naming the offending port.
func TestPacketLeakTripsPortConservation(t *testing.T) {
	n, a, b := pairNet(&leakyQueue{Queue: netsim.NewDropTail(0), every: 3})
	var got *Violation
	aud := New(n, nil)
	aud.OnViolation = func(v *Violation) {
		if got == nil {
			got = v
		}
	}
	checkEvery(n, aud, 5*sim.Microsecond)

	for i := 0; i < 6; i++ {
		pkt := netsim.NewPacket()
		pkt.Flow, pkt.Type, pkt.Size = 1, netsim.Data, netsim.MSS
		pkt.Src, pkt.Dst = a.ID(), b.ID()
		a.Send(pkt)
	}
	n.Run(5 * sim.Millisecond)

	if got == nil {
		t.Fatal("packet leak did not trip the auditor")
	}
	if got.Rule != "port-conservation" {
		t.Fatalf("tripped rule %q, want port-conservation (detail: %s)", got.Rule, got.Detail)
	}
	if !strings.Contains(got.Detail, "port A->B") {
		t.Errorf("detail %q does not name the leaking port", got.Detail)
	}
	if !strings.Contains(got.Dump, "A->B:") {
		t.Errorf("forensic dump lacks port state:\n%s", got.Dump)
	}
}

// overstuffedQueue reports a tiny capacity while actually buffering
// without bound, so occupancy can exceed the advertised cap.
type overstuffedQueue struct {
	netsim.Queue
}

func (o *overstuffedQueue) CapPackets() int { return 2 }

// TestQueueBoundViolation seeds a queue whose occupancy exceeds its
// advertised capacity and expects the queue-bound check to trip.
func TestQueueBoundViolation(t *testing.T) {
	n, a, b := pairNet(&overstuffedQueue{Queue: netsim.NewDropTail(0)})
	// Park the NIC so packets pile up past the advertised cap.
	for i := 0; i < 8; i++ {
		pkt := netsim.NewPacket()
		pkt.Flow, pkt.Type, pkt.Size = 1, netsim.Data, netsim.MSS
		pkt.Src, pkt.Dst = a.ID(), b.ID()
		a.Send(pkt)
	}
	var got *Violation
	aud := New(n, nil)
	aud.OnViolation = func(v *Violation) {
		if got == nil {
			got = v
		}
	}
	if v := aud.Check(); v == nil || got == nil {
		t.Fatal("overfull queue did not trip the auditor")
	}
	if got.Rule != "queue-bound" {
		t.Fatalf("tripped rule %q, want queue-bound (detail: %s)", got.Rule, got.Detail)
	}
}

// TestPanicWithoutHook checks the default fail-fast behaviour: no
// OnViolation hook means a violation panics with the forensic dump.
func TestPanicWithoutHook(t *testing.T) {
	n, a, b := pairNet(&overstuffedQueue{Queue: netsim.NewDropTail(0)})
	for i := 0; i < 8; i++ {
		pkt := netsim.NewPacket()
		pkt.Flow, pkt.Type, pkt.Size = 1, netsim.Data, netsim.MSS
		pkt.Src, pkt.Dst = a.ID(), b.ID()
		a.Send(pkt)
	}
	aud := New(n, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("violation without hook did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "queue-bound") || !strings.Contains(msg, "ports (") {
			t.Fatalf("panic message lacks rule and dump: %v", r)
		}
	}()
	aud.Check()
}
