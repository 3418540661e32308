package trace_test

import (
	"testing"

	"amrt/internal/experiment"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/trace"
	"amrt/internal/workload"
)

// End-to-end: trace an AMRT incast and verify the recorder sees starts,
// completions, deliveries and drops that match the network counters.
// The run attaches the recorder between the built network and the
// stack instance.
func TestRecorderEndToEnd(t *testing.T) {
	rec := &trace.Recorder{}
	b := topo.Fan(4)
	senders := []int{b.Sender(0), b.Sender(1), b.Sender(2), b.Sender(3)}
	res := experiment.LeafSpineRun{
		Topo:    b,
		Stack:   experiment.MustStack("AMRT", experiment.StackOptions{}),
		Flows:   workload.Incast(senders, b.Receiver(0), 200_000, 0),
		Horizon: 2 * sim.Second,
		Trace:   rec,
	}.Run()
	flows := res.Flows

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
	if int64(dropped) != res.Drops {
		t.Errorf("trace drops %d != network drops %d", dropped, res.Drops)
	}
	if dropped == 0 {
		t.Error("incast should have dropped packets")
	}
}
