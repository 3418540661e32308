package experiment

import (
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// Fairness: four equal flows to distinct receivers over one bottleneck,
// started within a few µs. Measure Jain's index of their goodput over
// the shared window [1ms, 4ms] (all flows active). Receiver-driven
// transports should share reasonably; AMRT's marks must not let one
// flow capture the link.
func TestFairnessAcrossProtocols(t *testing.T) {
	for _, proto := range StackNames() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			bytesIn := make([]int64, 4)
			st := withConfig(MustStack(proto, StackOptions{}), func(c *transport.Config) {
				eng, onData := c.Shard.Eng(), c.OnData
				c.OnData = func(f *transport.Flow, pkt *netsim.Packet) {
					if now := eng.Now(); now >= sim.Millisecond && now < 4*sim.Millisecond {
						bytesIn[int(f.ID-1)] += int64(pkt.Size)
					}
					onData(f, pkt)
				}
			})
			b := topo.Fan(4)
			LeafSpineRun{
				Topo: b, Stack: st, Horizon: 4 * sim.Millisecond,
				Flows: pairFlows(b, []int64{20_000_000, 20_000_000, 20_000_000, 20_000_000}, []sim.Time{0, 2500, 5000, 7500}),
			}.Run()
			rates := make([]float64, 4)
			var total float64
			for i, b := range bytesIn {
				rates[i] = float64(b)
				total += rates[i]
			}
			if total == 0 {
				t.Fatal("no goodput in the measurement window")
			}
			jain := stats.JainIndex(rates)
			// pHost's chop is known to be unfair at flow start; demand a
			// floor of 0.5 there and 0.6 elsewhere (1.0 = perfect).
			floor := 0.6
			if proto == "pHost" {
				floor = 0.5
			}
			if jain < floor {
				t.Errorf("Jain index %.3f below %.2f (rates %v)", jain, floor, rates)
			}
		})
	}
}
