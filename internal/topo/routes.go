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
	// Reverse adjacency: for each node, the owners of the ports that
	// point at it. Node IDs are dense, so per-node tables are slices
	// indexed by ID.
	incoming := make([][]netsim.Node, len(n.Hosts())+len(n.Switches()))
	addPorts := func(owner netsim.Node, ports ...*netsim.Port) {
		for _, p := range ports {
			to := p.Link().To.ID()
			incoming[to] = append(incoming[to], owner)
		}
	}
	for _, s := range n.Switches() {
		addPorts(s, s.Ports()...)
	}
	for _, h := range n.Hosts() {
		if h.NIC() != nil {
			addPorts(h, h.NIC())
		}
	}

	// One distance table and one BFS queue serve every destination.
	const unreached = -1
	dist := make([]int32, len(incoming))
	queue := make([]netsim.NodeID, 0, len(incoming))
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
			for _, owner := range incoming[cur] {
				if id := owner.ID(); dist[id] == unreached {
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
