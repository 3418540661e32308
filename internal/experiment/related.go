package experiment

import (
	"fmt"

	"amrt/internal/pool"
	"amrt/internal/sim"
	"amrt/internal/topo"
)

// RelatedWorkTable reproduces the §1/§9 contrast between reactive
// sender-based congestion control (DCTCP) and the receiver-driven
// transports: under a synchronized partition/aggregate burst, the
// reactive protocol reacts only after the queue has built, so short
// flows see queueing delay and loss that the proactive protocols avoid.
func RelatedWorkTable() *Table {
	t := &Table{
		Title: "Related work — reactive (DCTCP) vs receiver-driven under a 16-to-1 burst (250KB each, 10G)",
		Cols:  []string{"proto", "AFCT(ms)", "maxFCT(ms)", "drops", "max queue(pkts)"},
	}
	// The related-work contrast leads; the comparison set follows in
	// registry order.
	protos := append(RelatedNames(), ProtocolNames()...)
	type out struct {
		afct, max sim.Time
		drops     int64
		maxq      int
	}
	results := pool.Parallel(len(protos), func(i int) out {
		b := topo.Fan(16)
		res := LeafSpineRun{Topo: b, Stack: MustStack(protos[i], StackOptions{}), Flows: incast(b, 16, 250_000), Horizon: 5 * sim.Second}.Run()
		// The burst queues at the shared bottleneck or at the
		// aggregator's downlink.
		o := out{afct: res.AFCT, drops: res.Drops, maxq: max(res.MaxQueue, res.BottleneckQueue)}
		for _, f := range res.Flows {
			if f.Done && f.FCT() > o.max {
				o.max = f.FCT()
			}
		}
		return o
	})
	for i, proto := range protos {
		r := results[i]
		t.AddRow(proto,
			fmt.Sprintf("%.3f", r.afct.Milliseconds()),
			fmt.Sprintf("%.3f", r.max.Milliseconds()),
			fmt.Sprintf("%d", r.drops),
			fmt.Sprintf("%d", r.maxq))
	}
	return t
}
