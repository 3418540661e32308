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
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

func main() {
	const (
		fanIn = 16
		size  = 250_000 // bytes per sender
	)
	fmt.Printf("incast: %d senders × %dKB to one receiver over 10G\n\n", fanIn, size/1000)
	fmt.Printf("%-8s %12s %12s %8s %8s %8s\n", "proto", "mean FCT", "max FCT", "drops", "trims", "maxQ")

	b := topo.Fan(fanIn)
	senders := make([]int, fanIn)
	for i := range senders {
		senders[i] = b.Sender(i)
	}
	flows := workload.Incast(senders, b.Receiver(0), size, 0)
	for _, proto := range experiment.ProtocolNames() {
		st := experiment.MustStack(proto, experiment.StackOptions{})
		res := experiment.LeafSpineRun{Topo: b, Stack: st, Flows: flows, Horizon: 5 * sim.Second}.Run()

		var maxFCT sim.Time
		for _, f := range res.Flows {
			if f.FCT() > maxFCT {
				maxFCT = f.FCT()
			}
		}
		fmt.Printf("%-8s %12v %12v %8d %8d %8d\n",
			proto, res.AFCT.Duration().Round(time.Microsecond),
			maxFCT.Duration().Round(time.Microsecond),
			res.Drops, res.Trims, res.MaxQueue)
	}
	fmt.Println("\nideal drain time:", (sim.Rate(10 * sim.Gbps)).TxTime(fanIn*size).Duration().Round(time.Microsecond))
}
