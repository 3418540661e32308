package netsim_test

import (
	"math/rand"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
)

// fabrics builds one network of each multi-path builder, routes
// installed.
func fabrics() map[string]*netsim.Network {
	ft := topo.DefaultFatTree()
	ft.K = 8
	return map[string]*netsim.Network{
		"leafspine": topo.DefaultLeafSpine().Build(topo.Overlay{}).Net,
		"fattree8":  ft.Build(topo.Overlay{}).Net,
		"clos":      topo.DefaultClos().Build(topo.Overlay{}).Net,
	}
}

// hopsTo returns every node's hop count to host dst over the network's
// ports, -1 where dst is unreachable.
func hopsTo(n *netsim.Network, dst *netsim.Host) []int {
	nodes := len(n.Hosts()) + len(n.Switches())
	incoming := make([][]netsim.Node, nodes)
	each := func(owner netsim.Node, ports ...*netsim.Port) {
		for _, p := range ports {
			to := p.Link().To.ID()
			incoming[to] = append(incoming[to], owner)
		}
	}
	for _, h := range n.Hosts() {
		each(h, h.NIC())
	}
	for _, s := range n.Switches() {
		each(s, s.Ports()...)
	}
	dist := make([]int, nodes)
	for i := range dist {
		dist[i] = -1
	}
	dist[dst.ID()] = 0
	for queue := []netsim.NodeID{dst.ID()}; len(queue) > 0; queue = queue[1:] {
		for _, o := range incoming[queue[0]] {
			if dist[o.ID()] < 0 {
				dist[o.ID()] = dist[queue[0]] + 1
				queue = append(queue, o.ID())
			}
		}
	}
	return dist
}

// TestBuilderRoutesInterned: on the leaf-spine, fat-tree and Clos
// builders every switch's Routes(dst) is its ports on shortest paths to
// dst in port order — the order the builders call AddRoute in — with
// no spare capacity, and destinations with equal routes share storage:
// a switch holds one copy of each distinct set.
func TestBuilderRoutesInterned(t *testing.T) {
	for name, n := range fabrics() {
		hosts := n.Hosts()
		dists := make([][]int, len(hosts))
		for i, h := range hosts {
			dists[i] = hopsTo(n, h)
		}
		for _, s := range n.Switches() {
			storage := map[string]**netsim.Port{}
			for i, h := range hosts {
				var want []*netsim.Port
				for _, p := range s.Ports() {
					if dists[i][p.Link().To.ID()] == dists[i][s.ID()]-1 {
						want = append(want, p)
					}
				}
				got := s.Routes(h.ID())
				if len(got) != len(want) || cap(got) != len(got) || len(got) == 0 {
					t.Fatalf("%s: %s to %s: %d routes with capacity %d, want %d with none spare", name, s.Name(), h.Name(), len(got), cap(got), len(want))
				}
				key := ""
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("%s: %s to %s route %d = %v, want %v", name, s.Name(), h.Name(), j, got[j], want[j])
					}
					key += got[j].Name() + ","
				}
				if first, ok := storage[key]; !ok {
					storage[key] = &got[0]
				} else if first != &got[0] {
					t.Fatalf("%s: %s to %s: equal route sets in different storage", name, s.Name(), h.Name())
				}
			}
		}
	}
}

// BenchmarkSwitchReceive forwards packets from a k=8 fat-tree's
// switches: each iteration hands one packet to a random switch for a
// random host, so the route lookup, ECMP choice, enqueue and
// transmitter start of one hop are timed with the route tables as cold
// as on a fabric-wide run. The network drains between rounds, off the
// clock.
func BenchmarkSwitchReceive(b *testing.B) {
	ft := topo.DefaultFatTree()
	ft.K = 8
	n := ft.Build(topo.Overlay{}).Net
	sws, hosts := n.Switches(), n.Hosts()
	const round = 1 << 12
	type hop struct {
		sw  *netsim.Switch
		dst netsim.NodeID
	}
	hops := make([]hop, round)
	rng := rand.New(rand.NewSource(1))
	for i := range hops {
		hops[i] = hop{sws[rng.Intn(len(sws))], hosts[rng.Intn(len(hosts))].ID()}
	}
	sh := n.Shard(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := hops[i%round]
		pkt := sh.NewPacket()
		pkt.Flow, pkt.Type, pkt.Size, pkt.Dst = netsim.FlowID(i), netsim.Data, netsim.MSS, h.dst
		h.sw.Receive(pkt)
		if i%round == round-1 {
			b.StopTimer()
			n.Run(sim.Forever)
			b.StartTimer()
		}
	}
	b.StopTimer()
	n.Run(sim.Forever)
	if got := n.Delivered() + n.Dropped(); got != int64(b.N) {
		b.Fatalf("%d of %d packets delivered or dropped", got, b.N)
	}
	n.Release()
}
