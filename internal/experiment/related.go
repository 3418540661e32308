package experiment

import (
	"fmt"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
	"amrt/internal/workload"
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
	results := Parallel(len(protos), func(i int) out {
		st := MustStack(protos[i], StackOptions{})
		col := stats.NewFCTCollector()
		h := NewScenarioHarness(st, topo.DefaultScenario(), fanN(16), transport.Config{Collector: col}, 1, 0, nil)
		s := h.S
		mon := netsim.Attach(h.Downlink(s.Receivers[0]))
		btl := netsim.Attach(s.Bottlenecks[0])
		for _, fs := range workload.Incast(seqInts(16), 0, 250_000, 0) {
			h.AddFlow(fs.ID, s.Senders[fs.Src], s.Receivers[0], fs.Size, fs.Start)
		}
		h.Run(5 * sim.Second)
		var o out
		o.afct = col.Mean()
		for _, f := range h.Flows() {
			if f.Done && f.FCT() > o.max {
				o.max = f.FCT()
			}
		}
		o.drops = s.Net.Dropped()
		o.maxq = mon.MaxQueueLen
		if btl.MaxQueueLen > o.maxq {
			o.maxq = btl.MaxQueueLen
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

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
