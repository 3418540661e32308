package experiment

import (
	"math"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

// spacedFlows returns n flows across a leaf–spine of two leaves, one
// every millisecond, alternating 20- and 100-packet sizes (inline and
// pooled bitmaps) and rotating over the cross-leaf host pairs: no two
// overlap, so every run's peaks — live records, bitmap arrays, pacer
// and recovery queues — are one flow's.
func spacedFlows(c topo.LeafSpineConfig, n int) []workload.FlowSpec {
	per := c.HostsPerLeaf
	flows := make([]workload.FlowSpec, n)
	for i := range flows {
		size := int64(20 * netsim.MSS)
		if i%2 == 1 {
			size = 100 * netsim.MSS
		}
		flows[i] = workload.FlowSpec{
			ID: netsim.FlowID(i + 1), Src: i % per, Dst: per + (i/per)%per,
			Size: size, Start: sim.Time(i) * sim.Millisecond,
		}
	}
	return flows
}

// TestFlowAllocs holds a run's allocations to its shape, not its flow
// count: for every stack, a warm run of 2N spaced flows allocates no
// more than one of N, but for the slabs of the tables that keep one
// record per flow for the run — ⌈N/64⌉ each: Homa's and SIRD's receiver
// records, DCTCP's receiver and sender records. Everything else a flow
// needs is sized once from the flow count (the kernel's flows, its flow
// index and creation order, the signal pair counters) or pooled and
// reused (recycled receiver records, bitmap arrays, NDP's retransmit
// queues, the host lists). N and 2N stay under one event slab of
// pending starts (128 events): every start is scheduled at
// registration, so past that the engine's event slabs add ⌈N/128⌉.
func TestFlowAllocs(t *testing.T) {
	const n = 32
	kept := map[string]int{"Homa": 1, "SIRD": 1, "DCTCP": 2}
	c := topo.DefaultLeafSpine()
	c.Leaves, c.Spines, c.HostsPerLeaf = 2, 1, 4
	for _, name := range StackNames() {
		allocs := func(flows int) float64 {
			r := LeafSpineRun{Topo: c, Stack: MustStack(name, StackOptions{}), Flows: spacedFlows(c, flows)}
			if res := r.Run(); res.Completed != flows {
				t.Fatalf("%s, %d flows: %d completed", name, flows, res.Completed)
			}
			return programAllocsPerRun(2, func() { r.Run() })
		}
		one, two := allocs(n), allocs(2*n)
		allow := float64(kept[name] * int(math.Ceil(n/64.0)))
		t.Logf("%s: %.0f allocations for %d flows, %.0f for %d", name, one, n, two, 2*n)
		if two > one+allow {
			t.Errorf("%s: %.0f allocations for %d flows, %.0f for %d: want at most %.0f more", name, one, n, two, 2*n, allow)
		}
	}
}
