// Incast drives the partition/aggregate burst: N synchronized senders
// send the same-size response to one receiver. It shows how each
// transport absorbs the burst — NDP trims payloads, AMRT drops beyond
// its 8-packet cap and recovers by reissued grants, pHost and Homa ride
// their larger buffers — and what that costs in completion time.
//
//	go run ./examples/incast
package main

import (
	"fmt"
	"time"

	"amrt/internal/experiment"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
	"amrt/internal/workload"
)

func main() {
	const (
		fanIn = 16
		size  = 250_000 // bytes per sender
	)
	fmt.Printf("incast: %d senders × %dKB to one receiver over 10G\n\n", fanIn, size/1000)
	fmt.Printf("%-8s %12s %12s %8s %8s %8s\n", "proto", "mean FCT", "max FCT", "drops", "trims", "maxQ")

	for _, proto := range experiment.ProtocolNames() {
		st := experiment.MustStack(proto, experiment.StackOptions{})
		col := stats.NewFCTCollector()
		h := experiment.NewScenarioHarness(st, topo.DefaultScenario(),
			func(c topo.ScenarioConfig, ov topo.Overlay) *topo.Scenario { return topo.NewFanN(c, ov, fanIn) },
			transport.Config{Collector: col}, 1, 0, nil)
		s := h.S
		mon := netsim.Attach(h.Downlink(s.Receivers[0]))
		for _, fs := range workload.Incast(seq(fanIn), 0, size, 0) {
			h.AddFlow(fs.ID, s.Senders[fs.Src], s.Receivers[0], fs.Size, fs.Start)
		}
		h.Run(5 * sim.Second)

		var maxFCT sim.Time
		for _, f := range h.Flows() {
			if f.FCT() > maxFCT {
				maxFCT = f.FCT()
			}
		}
		var trims int64
		for _, sw := range s.Switches {
			for _, pt := range sw.Ports() {
				if tq, ok := pt.Queue().(*netsim.TrimmingQueue); ok {
					trims += tq.Trims
				}
			}
		}
		fmt.Printf("%-8s %12v %12v %8d %8d %8d\n",
			proto, col.Mean().Duration().Round(time.Microsecond),
			maxFCT.Duration().Round(time.Microsecond),
			s.Net.Dropped(), trims, mon.MaxQueueLen)
	}
	fmt.Println("\nideal drain time:", (sim.Rate(10 * sim.Gbps)).TxTime(fanIn*size).Duration().Round(time.Microsecond))
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
