package netsim

import (
	"fmt"

	"amrt/internal/sim"
)

// Node is anything a link can terminate at: a host or a switch.
type Node interface {
	// Receive delivers a packet that finished propagating on a link.
	Receive(pkt *Packet)
	// ID returns the node's network-unique identifier.
	ID() NodeID
	// Name returns the diagnostic name.
	Name() string
}

// Host is an end system with a single NIC. Transport endpoints register a
// Handler to consume delivered packets and use Send to emit packets into
// the NIC queue.
type Host struct {
	id   NodeID
	name string
	net  *Network
	// shard is the engine shard this host runs on (see Network.Partition);
	// always shard 0 on an unpartitioned network.
	shard *Shard
	nic   *Port

	// Handler consumes packets addressed to this host. Exactly one
	// transport owns a host at a time.
	Handler func(pkt *Packet)

	// RxPackets and RxBytes count deliveries.
	RxPackets int64
	RxBytes   int64
}

// ID implements Node.
func (h *Host) ID() NodeID { return h.id }

// Name implements Node.
func (h *Host) Name() string { return h.name }

// NIC returns the host's single egress port. It is nil until the host is
// connected to a switch.
func (h *Host) NIC() *Port { return h.nic }

// Shard returns the engine shard this host is assigned to — the shard
// whose goroutine owns all of the host's state. Fault-plan events that
// touch the host are homed here.
func (h *Host) Shard() *Shard { return h.shard }

// LinkRate returns the host NIC's link rate.
func (h *Host) LinkRate() sim.Rate { return h.nic.link.Rate }

// Send enqueues a packet on the host NIC.
func (h *Host) Send(pkt *Packet) {
	if h.nic == nil {
		panic(fmt.Sprintf("netsim: host %s is not connected", h.name))
	}
	h.shard.Injected++
	h.nic.Send(pkt)
}

// Receive implements Node. The packet's journey ends here: once the
// Handler returns, the packet is recycled onto the shard's free list,
// so handlers must not retain it (see Packet).
func (h *Host) Receive(pkt *Packet) {
	h.RxPackets++
	h.RxBytes += int64(pkt.Size)
	h.shard.noteDeliver(pkt)
	if h.Handler != nil {
		h.Handler(pkt)
	}
	h.shard.ReleasePacket(pkt)
}

// Switch forwards packets toward destination hosts using per-destination
// next-hop sets; when several equal-cost ports exist, one is chosen by a
// deterministic ECMP hash of the flow ID so each flow follows one path.
type Switch struct {
	id   NodeID
	name string
	net  *Network
	// shard is the engine shard this switch runs on (see
	// Network.Partition); always shard 0 on an unpartitioned network.
	shard *Shard
	ports []*Port
	// routeOf[dst] indexes dst's equal-cost egress set in routeSets. Node
	// IDs are dense (Network.nextID), so the per-hop lookup is a slice
	// index; AddRoute grows the table to the network's current ID count.
	// Set 0 is the empty set: no route.
	routeOf []uint32
	// routeSets holds each distinct route set once: a fabric switch has
	// a handful (its uplinks, and one per downlink) however many hosts
	// it routes to. Every set is a span of routeArena, so a switch's
	// whole table is three arrays, not one slice per destination. See
	// AddRoute.
	routeSets  []routeSet
	routeArena []*Port
	// downPorts counts the switch's ports that are administratively
	// down. SetAdminDown, the only writer of Port.down, keeps it on the
	// switch's own shard; while it is zero, Receive skips the per-route
	// liveness scan.
	downPorts int
}

// routeSet is one candidate list of a switch: routeArena[off : off+n].
// Sets form a trie over AddRoute order: child heads the chain (through
// sibling) of the sets that are this one plus one more port, so adding
// a port to a destination finds "old set + p" if any destination has
// already reached it. Index 0 (the empty set, the root) is never a
// child, so 0 ends a chain.
type routeSet struct {
	off, n         uint32
	child, sibling uint32
}

// ID implements Node.
func (s *Switch) ID() NodeID { return s.id }

// Name implements Node.
func (s *Switch) Name() string { return s.name }

// Ports returns the switch's egress ports in creation order.
func (s *Switch) Ports() []*Port { return s.ports }

// Shard returns the engine shard this switch is assigned to — the shard
// whose goroutine owns the switch, its ports, and its queues.
func (s *Switch) Shard() *Shard { return s.shard }

// AddRoute registers an equal-cost egress port of the switch for a
// destination host, which must already exist; the candidate order is
// the order of the calls. Destinations whose routes are the same ports
// in the same order share one set: AddRoute moves dst from its set to
// that set plus p, found among the set's one-port extensions or, if no
// destination has reached it yet, created at the arena's tail — in
// place when the old set is the tail, as adding a destination's ports
// consecutively makes it (InstallShortestPathRoutes does), and
// otherwise as a copy. A set is never written once created, so one
// destination's AddRoute never changes another's routes.
func (s *Switch) AddRoute(dst NodeID, p *Port) {
	if p.owner != Node(s) {
		panic(fmt.Sprintf("netsim: switch %s routes through %v, a port it does not own", s.name, p))
	}
	if n := int(s.net.nextID); len(s.routeOf) < n {
		s.routeOf = append(s.routeOf, make([]uint32, n-len(s.routeOf))...)
	}
	if s.routeSets == nil {
		// A fabric switch reaches every destination through one of its
		// ports or through one chain of them (its uplinks, added in
		// place): one set per port past the root, one arena slot each.
		s.routeSets = make([]routeSet, 1, len(s.ports)+1)
		s.routeArena = make([]*Port, 0, len(s.ports))
	}
	cur := s.routeOf[dst]
	for c := s.routeSets[cur].child; c != 0; c = s.routeSets[c].sibling {
		if set := s.routeSets[c]; s.routeArena[set.off+set.n-1] == p {
			s.routeOf[dst] = c
			return
		}
	}
	old := s.routeSets[cur]
	set := routeSet{off: old.off, n: old.n + 1, sibling: old.child}
	if tail := uint32(len(s.routeArena)); old.off+old.n != tail {
		set.off = tail
		s.routeArena = append(s.routeArena, s.routeArena[old.off:old.off+old.n]...)
	}
	s.routeArena = append(s.routeArena, p)
	id := uint32(len(s.routeSets))
	s.routeSets = append(s.routeSets, set)
	s.routeSets[cur].child = id
	s.routeOf[dst] = id
}

// Routes returns the candidate egress ports for a destination, or nil
// if there are none (including a dst outside the network's ID range).
// The result aliases the switch's route arena, and destinations with
// the same routes get the same storage: read it, do not append to it
// (its capacity equals its length, so an append copies).
func (s *Switch) Routes(dst NodeID) []*Port {
	if dst < 0 || int(dst) >= len(s.routeOf) {
		return nil
	}
	set := s.routeSets[s.routeOf[dst]]
	if set.n == 0 {
		return nil
	}
	return s.routeArena[set.off : set.off+set.n : set.off+set.n]
}

// Receive implements Node: ECMP-forward toward the packet destination,
// failing over to the surviving equal-cost routes when some are
// administratively down. A flow pinned to a dead path by the ECMP hash
// is re-hashed over the live subset, and moves back when the path
// recovers; with no live route at all the packet is dropped (and
// counted in Network.NoRouteDrops).
func (s *Switch) Receive(pkt *Packet) {
	cands := s.Routes(pkt.Dst)
	if len(cands) == 0 {
		panic(fmt.Sprintf("netsim: switch %s has no route to host %d (packet %v)", s.name, pkt.Dst, pkt))
	}
	up := len(cands)
	if s.downPorts > 0 {
		up = 0
		for _, c := range cands {
			if !c.down {
				up++
			}
		}
	}
	switch {
	case up == 0:
		s.shard.noteNoRoute(pkt)
		s.shard.ReleasePacket(pkt)
	case up == len(cands):
		// Fast path: all routes live, hash over the full set so paths
		// are stable while nothing is failing.
		if len(cands) == 1 {
			cands[0].Send(pkt)
			return
		}
		cands[ecmpHash(pkt.Flow, s.id, s.shard.ecmpSalt)%uint64(len(cands))].Send(pkt)
	default:
		idx := int(ecmpHash(pkt.Flow, s.id, s.shard.ecmpSalt) % uint64(up))
		for _, c := range cands {
			if c.down {
				continue
			}
			if idx == 0 {
				c.Send(pkt)
				return
			}
			idx--
		}
	}
}

// ecmpHash mixes the flow ID with the switch ID (splitmix64 finalizer) so
// that successive switches make independent choices, avoiding the
// polarization a shared hash would cause. salt is the network-wide ECMP
// seed (see Network.SetECMPSalt): XORed in before the finalizer, so a
// zero salt leaves the historical path assignment bit-for-bit unchanged
// and a rotation re-randomizes every multipath decision at once.
func ecmpHash(flow FlowID, sw NodeID, salt uint64) uint64 {
	z := uint64(flow)*0x9e3779b97f4a7c15 + uint64(uint32(sw)) ^ salt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
