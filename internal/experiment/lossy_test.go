package experiment

import (
	"fmt"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// lossyStack wraps a protocol's switch queues with seeded random loss.
func lossyStack(proto string, prob float64) Stack {
	st := MustStack(proto, StackOptions{})
	inner := st.SwitchQueue
	seed := int64(0)
	st.SwitchQueue = func() netsim.Queue {
		seed++
		return netsim.NewLossy(inner(), prob, seed)
	}
	return st
}

// Every protocol must complete all flows under 2% random data loss on
// every switch hop — loss recovery is a correctness property, not a
// performance one.
func TestAllProtocolsSurviveRandomLoss(t *testing.T) {
	for _, proto := range StackNames() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			st := lossyStack(proto, 0.02)
			h := NewScenarioHarness(st, topo.DefaultScenario(), fanN(4), transport.Config{}, 1, 0, nil)
			s := h.S
			for i := 0; i < 4; i++ {
				h.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[i], 1_000_000, sim.Time(i)*20*sim.Microsecond)
			}
			h.Run(20 * sim.Second)
			for _, f := range h.Flows() {
				if !f.Done {
					t.Fatalf("%v did not complete under 2%% loss", f)
				}
			}
			// Injected loss must actually have occurred.
			var injected int64
			for _, sw := range s.Switches {
				for _, pt := range sw.Ports() {
					if lq, ok := pt.Queue().(*netsim.LossyQueue); ok {
						injected += lq.Injected
					}
				}
			}
			if injected == 0 {
				t.Error("loss injection did not fire")
			}
		})
	}
}

// Heavier loss on a single long flow: throughput degrades but the flow
// still completes, and the FCT inflation stays within an order of
// magnitude for every protocol.
func TestSingleFlowUnderHeavyLoss(t *testing.T) {
	for _, proto := range ProtocolNames() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			st := lossyStack(proto, 0.05)
			h := NewScenarioHarness(st, topo.DefaultScenario(), fanN(1), transport.Config{}, 1, 0, nil)
			f := h.AddFlow(1, h.S.Senders[0], h.S.Receivers[0], 2_000_000, 0)
			h.Run(30 * sim.Second)
			if !f.Done {
				t.Fatal("flow did not complete under 5% loss")
			}
			// Clean-path time is ~1.8ms; allow a generous 60× for the
			// conservative recovery paths.
			if f.FCT() > 110*sim.Millisecond {
				t.Errorf("FCT %v under 5%% loss", f.FCT())
			}
		})
	}
}

// The loss wrapper composes with the trace/drop accounting: injected
// drops appear in the network drop counters.
func TestLossAccounting(t *testing.T) {
	st := lossyStack("AMRT", 0.1)
	h := NewScenarioHarness(st, topo.DefaultScenario(), fanN(1), transport.Config{}, 1, 0, nil)
	s := h.S
	f := h.AddFlow(1, s.Senders[0], s.Receivers[0], 500_000, 0)
	h.Run(20 * sim.Second)
	if !f.Done {
		t.Fatal("flow incomplete")
	}
	var injected int64
	for _, sw := range s.Switches {
		for _, pt := range sw.Ports() {
			if lq, ok := pt.Queue().(*netsim.LossyQueue); ok {
				injected += lq.Injected
			}
		}
	}
	if injected == 0 {
		t.Fatal("no injected loss at 10%")
	}
	if s.Net.Dropped() < injected {
		t.Errorf("network counted %d drops < %d injected", s.Net.Dropped(), injected)
	}
	if fmt.Sprintf("%T", s.Switches[0].Ports()[0].Queue()) != "*netsim.LossyQueue" {
		t.Error("wrapper not installed")
	}
}
