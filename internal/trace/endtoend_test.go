package trace_test

import (
	"testing"

	"amrt/internal/experiment"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/trace"
	"amrt/internal/transport"
)

// End-to-end: trace an AMRT incast and verify the recorder sees starts,
// completions, deliveries and drops that match the network counters.
// The recorder hooks in where the runner hooks it: between the built
// network and the stack instance.
func TestRecorderEndToEnd(t *testing.T) {
	rec := &trace.Recorder{}
	st := experiment.MustStack("AMRT", experiment.StackOptions{})
	newInstance := st.New
	st.New = func(net *netsim.Network, base transport.Config) experiment.Instance {
		rec.Attach(net, &base)
		return newInstance(net, base)
	}
	h := experiment.NewScenarioHarness(st, topo.DefaultScenario(),
		func(c topo.ScenarioConfig, ov topo.Overlay) *topo.Scenario { return topo.NewFanN(c, ov, 4) },
		transport.Config{}, 1, 0, nil)
	s := h.S
	for i := 0; i < 4; i++ {
		rec.RecordStart(h.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[0], 200_000, 0))
	}
	h.Run(2 * sim.Second)
	flows := h.Flows()

	sums := rec.Summaries()
	if len(sums) != 4 {
		t.Fatalf("summaries = %d", len(sums))
	}
	var delivered, dropped int
	for _, sm := range sums {
		if !sm.Done {
			t.Errorf("flow %d not done in trace", sm.Flow)
		}
		if sm.Delivered < int(flows[0].NPkts) {
			t.Errorf("flow %d delivered %d < %d packets", sm.Flow, sm.Delivered, flows[0].NPkts)
		}
		delivered += sm.Delivered
		dropped += sm.Dropped
	}
	if int64(dropped) != s.Net.Dropped() {
		t.Errorf("trace drops %d != network drops %d", dropped, s.Net.Dropped())
	}
	if dropped == 0 {
		t.Error("incast should have dropped packets")
	}
}
