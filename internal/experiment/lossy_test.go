package experiment

import (
	"fmt"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
)

// lossyStack wraps a protocol's switch queues with seeded random loss.
func lossyStack(proto string, prob float64) Stack {
	st := MustStack(proto, StackOptions{})
	inner := st.SwitchQueue
	seed := int64(0)
	st.SwitchQueue = func(s *netsim.Slabs) netsim.Queue {
		seed++
		return s.NewLossy(inner(s), prob, seed)
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
			var net *netsim.Network
			b := topo.Fan(4)
			flows := LeafSpineRun{
				Topo:    b,
				Stack:   tapNet(lossyStack(proto, 0.02), &net),
				Flows:   pairFlows(b, []int64{1_000_000, 1_000_000, 1_000_000, 1_000_000}, []sim.Time{0, 20 * sim.Microsecond, 40 * sim.Microsecond, 60 * sim.Microsecond}),
				Horizon: 20 * sim.Second,
			}.Run().Flows
			for _, f := range flows {
				if !f.Done {
					t.Fatalf("%v did not complete under 2%% loss", f)
				}
			}
			// Injected loss must actually have occurred.
			var injected int64
			for _, sw := range net.Switches() {
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
			b := topo.Fan(1)
			f := LeafSpineRun{Topo: b, Stack: lossyStack(proto, 0.05), Flows: pairFlows(b, []int64{2_000_000}, []sim.Time{0}), Horizon: 30 * sim.Second}.Run().Flows[0]
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
	var net *netsim.Network
	b := topo.Fan(1)
	res := LeafSpineRun{Topo: b, Stack: tapNet(lossyStack("AMRT", 0.1), &net), Flows: pairFlows(b, []int64{500_000}, []sim.Time{0}), Horizon: 20 * sim.Second}.Run()
	if !res.Flows[0].Done {
		t.Fatal("flow incomplete")
	}
	var injected int64
	for _, sw := range net.Switches() {
		for _, pt := range sw.Ports() {
			if lq, ok := pt.Queue().(*netsim.LossyQueue); ok {
				injected += lq.Injected
			}
		}
	}
	if injected == 0 {
		t.Fatal("no injected loss at 10%")
	}
	if res.Drops < injected {
		t.Errorf("network counted %d drops < %d injected", res.Drops, injected)
	}
	if fmt.Sprintf("%T", net.Switches()[0].Ports()[0].Queue()) != "*netsim.LossyQueue" {
		t.Error("wrapper not installed")
	}
}
