// Package topo builds the network topologies used in the paper's
// evaluation — leaf–spine fabrics, dumbbells, multi-bottleneck chains and
// the two testbed layouts — and installs shortest-path ECMP routes.
package topo

import (
	"fmt"

	"amrt/internal/netsim"
)

// InstallShortestPathRoutes computes, for every (switch, destination
// host) pair, the set of egress ports on shortest paths and registers
// them as equal-cost routes. It must be called after all links exist.
//
// The computation is a reverse BFS from each host, so it works for any
// topology the builders in this package produce (and any custom one),
// with all-equal link weights.
func InstallShortestPathRoutes(n *netsim.Network) {
	// Reverse adjacency as two flat arrays: the owners of the ports that
	// point at node v are from[start[v]:start[v+1]]. Node IDs are dense,
	// so per-node tables are indexed by ID. The ports are counted into
	// start[to+1], summed, then placed with start[to] as the cursor,
	// which leaves start[v] where start[v+1] was: one shift restores it.
	nodes := len(n.Hosts()) + len(n.Switches())
	start := make([]int32, nodes+1)
	each := func(fn func(owner, to netsim.NodeID)) {
		for _, s := range n.Switches() {
			for _, p := range s.Ports() {
				fn(s.ID(), p.Link().To.ID())
			}
		}
		for _, h := range n.Hosts() {
			if h.NIC() != nil {
				fn(h.ID(), h.NIC().Link().To.ID())
			}
		}
	}
	each(func(_, to netsim.NodeID) { start[to+1]++ })
	for v := 1; v <= nodes; v++ {
		start[v] += start[v-1]
	}
	from := make([]netsim.NodeID, start[nodes])
	each(func(owner, to netsim.NodeID) {
		from[start[to]] = owner
		start[to]++
	})
	copy(start[1:], start[:nodes])
	start[0] = 0

	// One distance table and one BFS queue serve every destination.
	const unreached = -1
	dist := make([]int32, nodes)
	queue := make([]netsim.NodeID, 0, nodes)
	for _, dst := range n.Hosts() {
		if dst.NIC() == nil {
			continue
		}
		// BFS over reverse edges from the destination host.
		for i := range dist {
			dist[i] = unreached
		}
		dist[dst.ID()] = 0
		queue = append(queue[:0], dst.ID())
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, id := range from[start[cur]:start[cur+1]] {
				if dist[id] == unreached {
					dist[id] = dist[cur] + 1
					queue = append(queue, id)
				}
			}
		}
		for _, s := range n.Switches() {
			d := dist[s.ID()]
			if d == unreached {
				continue // switch cannot reach dst
			}
			for _, p := range s.Ports() {
				if dist[p.Link().To.ID()] == d-1 {
					s.AddRoute(dst.ID(), p)
				}
			}
		}
	}
}

// CheckConnected panics if any switch lacks a route to any host; useful
// as a builder postcondition.
func CheckConnected(n *netsim.Network) {
	for _, s := range n.Switches() {
		for _, h := range n.Hosts() {
			if len(s.Routes(h.ID())) == 0 {
				panic(fmt.Sprintf("topo: switch %s has no route to host %s", s.Name(), h.Name()))
			}
		}
	}
}
