package netsim

import (
	"fmt"

	"amrt/internal/sim"
	"amrt/internal/slab"
)

// Network owns the nodes and links of one simulation and the engine (or,
// after Partition, engines) that drive them. Delivery, drop, and
// conservation counters live on the Shard structs; on an unpartitioned
// network there is exactly one shard and the Network accessors read it
// directly.
type Network struct {
	// Engine is shard 0's engine. On an unpartitioned network it is the
	// only engine and drives everything, which is the golden single-core
	// reference path; after Partition it remains valid as the shard-0
	// engine (pre-run setup code schedules on it; subsystems that span
	// the partition — the fault layer — schedule on each owning shard's
	// engine instead).
	Engine *sim.Engine

	hosts    []*Host
	switches []*Switch
	nextID   NodeID

	// The network's objects are carved from these (see Reserve): its
	// hosts, switches and ports, the switches' port lists and route
	// tables, and the port monitors Attach makes.
	hostSlab   slab.Slab[Host]
	switchSlab slab.Slab[Switch]
	portSlab   slab.Slab[Port]
	portLists  slab.Slab[*Port]
	routeOfs   slab.Slab[uint32]
	routeSets  slab.Slab[routeSet]
	routeArena slab.Slab[*Port]
	monitors   slab.Slab[PortMonitor]

	// shards holds the engine shards; exactly one until Partition.
	shards []*Shard
	// minDelay is the smallest link propagation delay — the conservative
	// lookahead of the sharded runtime (computed at Partition).
	minDelay sim.Time
	// nextLinkID numbers ports in creation order; the per-link arrival
	// keys fold it in, so the numbering must be identical however the
	// network is later partitioned (it is: topology construction order
	// does not depend on the shard count).
	nextLinkID uint64

	// jitterMax, when positive, adds a uniform random 0..jitterMax delay
	// to every packet delivery (see SetJitter). The draws come from
	// per-port streams sub-seeded from jitterSeed, so they are
	// independent of event interleaving and of the shard count.
	jitterMax  sim.Time
	jitterSeed int64
	// released is set by Release: the ports' jitter streams are gone, so
	// the network may not run or draw again.
	released bool

	// BarrierHook, if non-nil, runs on the coordinator goroutine at every
	// window barrier of a sharded run, after outboxes have drained and
	// while every shard goroutine is parked — the only points during a
	// multi-shard run where whole-network state may be read consistently.
	// The experiment runner hangs its global grant-budget audit here. Not
	// called on single-shard runs, which have no barriers.
	BarrierHook func()
}

// Shard is one engine's partition of the network: the hosts, switches,
// and ports assigned to it, its engine, and its slice of the global
// accounting. On an unpartitioned network the single shard 0 holds
// everything. The exported counters mirror the pre-shard Network fields;
// the Network accessors sum them across shards.
type Shard struct {
	idx int
	net *Network
	eng *sim.Engine

	// Delivered counts packets handed to this shard's hosts; Dropped
	// counts packets rejected by any of its queues. DroppedByType breaks
	// drops down per packet type.
	Delivered     int64
	Dropped       int64
	DroppedByType [numPacketTypes]int64

	// Injected counts packets entering the network through this shard's
	// hosts; OnWire counts packets between a dequeue on this shard and
	// the far end of an intra-shard link. PipedOut counts packets handed
	// to another shard — custody moves at the dequeue onto a cross-shard
	// link, so such a packet is never on this shard's wire; PipedIn
	// counts packets received from another shard. The per-shard
	// conservation identity the audit subsystem checks is
	//
	//	Injected + PipedIn == Delivered + Dropped + Σ queue.Len() + OnWire + PipedOut
	//
	// which on one shard (PipedOut == PipedIn == 0) reduces to the
	// original network-wide identity.
	Injected int64
	OnWire   int64
	PipedOut int64
	PipedIn  int64

	// NoRouteDrops counts packets dropped at a switch because every
	// equal-cost route to the destination was administratively down
	// (fault injection). Included in Dropped.
	NoRouteDrops int64

	// DropHook, if non-nil, observes every packet dropped on this shard
	// (used by loss-injection tests and drop traces). It runs on the
	// shard's goroutine.
	DropHook func(pkt *Packet)

	// out[d] buffers deliveries and signals bound for shard d, recorded
	// during a window and drained into d's engine at the next barrier.
	// No lock: the owning shard appends between barriers, the
	// coordinator drains at barriers, and the barrier channels order the
	// two.
	out [][]xrec

	// pairSeq numbers signal records per (source node, destination node)
	// pair; see signalKey. Made by the first signal, or sized up front by
	// ReserveSignals.
	pairSeq map[uint64]uint32

	// ecmpSalt is this shard's copy of the network ECMP hash salt (see
	// Network.SetECMPSalt). Each shard's switches hash with their own
	// copy, so a mid-run rotation — the fault layer's Rehash event —
	// can be applied by one same-instant event per shard without any
	// cross-shard read. Setup-time writes go through the Network, which
	// keeps every copy equal.
	ecmpSalt uint64

	// stopped is set by the windowed runtime when this shard's engine
	// interrupt fired.
	stopped bool

	// packets is the shard's packet pool, its free chain of nfree
	// packets threaded through Packet.next. See NewPacket.
	packets slab.Pool[Packet]
	nfree   int
}

// Index returns the shard's index in Network.Shards.
func (s *Shard) Index() int { return s.idx }

// Eng returns the shard's engine.
func (s *Shard) Eng() *sim.Engine { return s.eng }

// Network returns the owning network.
func (s *Shard) Network() *Network { return s.net }

// xrec is one cross-shard record: a typed event (sim.Handler, op, arg)
// to schedule on the target shard at a timestamped, deterministically
// keyed position. Deliveries carry the sending port and the packet;
// signals carry their handler (a closure rides as a sim.Func).
type xrec struct {
	at  sim.Time
	key uint64
	h   sim.Handler
	op  int32
	arg any
}

// New returns an empty network on a fresh engine, with a single shard.
func New() *Network {
	n := &Network{Engine: sim.NewEngine()}
	n.shards = []*Shard{{idx: 0, net: n, eng: n.Engine, packets: packetPool()}}
	return n
}

// Shards returns the engine shards (length 1 until Partition).
func (n *Network) Shards() []*Shard { return n.shards }

// Shard returns shard i.
func (n *Network) Shard(i int) *Shard { return n.shards[i] }

// NumShards returns the number of engine shards.
func (n *Network) NumShards() int { return len(n.shards) }

// Delivered sums packets handed to hosts across all shards.
func (n *Network) Delivered() int64 {
	var t int64
	for _, s := range n.shards {
		t += s.Delivered
	}
	return t
}

// Dropped sums packets rejected by any queue across all shards.
func (n *Network) Dropped() int64 {
	var t int64
	for _, s := range n.shards {
		t += s.Dropped
	}
	return t
}

// DroppedOfType sums drops of one packet type across all shards.
func (n *Network) DroppedOfType(t PacketType) int64 {
	var v int64
	for _, s := range n.shards {
		v += s.DroppedByType[t]
	}
	return v
}

// Injected sums packets entering through Host.Send across all shards.
func (n *Network) Injected() int64 {
	var t int64
	for _, s := range n.shards {
		t += s.Injected
	}
	return t
}

// OnWire sums packets currently serializing or propagating, plus — via
// the PipedOut/PipedIn difference — packets in flight between shards.
func (n *Network) OnWire() int64 {
	var t int64
	for _, s := range n.shards {
		t += s.OnWire + s.PipedOut - s.PipedIn
	}
	return t
}

// NoRouteDrops sums no-route drops across all shards.
func (n *Network) NoRouteDrops() int64 {
	var t int64
	for _, s := range n.shards {
		t += s.NoRouteDrops
	}
	return t
}

// Executed sums dispatched events across all shard engines; ExecutedLate
// sums the observer-band subset (see sim.Engine).
func (n *Network) Executed() (total, late uint64) {
	for _, s := range n.shards {
		total += s.eng.Executed
		late += s.eng.ExecutedLate
	}
	return total, late
}

// SetDropHook installs fn as every shard's drop observer (single-shard
// callers can also set Shard.DropHook directly).
func (n *Network) SetDropHook(fn func(pkt *Packet)) {
	for _, s := range n.shards {
		s.DropHook = fn
	}
}

// Reserve sizes the network for a fabric of the given numbers of
// hosts, switches and egress ports (host NICs included), with every
// host cabled to a switch: each kind of object the fabric is made of
// then comes from one array. That is the hosts, the switches, the ports,
// the switches' port lists (see Switch.Reserve) and route tables, and
// one port monitor per host. Call it on a new network, before its first
// node; the topology builders do. A network built without it, or past
// it, works the same, carving from chunks that double from 2 to 64.
func (n *Network) Reserve(hosts, switches, ports int) {
	if n.nextID != 0 {
		panic("netsim: Reserve after the first node")
	}
	swPorts := ports - hosts
	n.hosts = make([]*Host, 0, hosts)
	n.switches = make([]*Switch, 0, switches)
	n.hostSlab.Reserve(hosts)
	n.switchSlab.Reserve(switches)
	n.portSlab.Reserve(ports)
	n.portLists.Reserve(swPorts)
	n.routeOfs.Reserve(switches * (hosts + switches))
	n.routeSets.Reserve(swPorts + switches)
	n.routeArena.Reserve(swPorts)
	n.monitors.Reserve(hosts)
}

// NewHost adds a host. The name is diagnostic only.
func (n *Network) NewHost(name string) *Host {
	h := n.hostSlab.One()
	*h = Host{id: n.nextID, name: name, net: n, shard: n.shards[0]}
	n.nextID++
	n.hosts = append(n.hosts, h)
	return h
}

// NewSwitch adds a switch.
func (n *Network) NewSwitch(name string) *Switch {
	s := n.switchSlab.One()
	*s = Switch{id: n.nextID, name: name, net: n, shard: n.shards[0]}
	n.nextID++
	n.switches = append(n.switches, s)
	return s
}

// Hosts returns all hosts in creation order.
func (n *Network) Hosts() []*Host { return n.hosts }

// Switches returns all switches in creation order.
func (n *Network) Switches() []*Switch { return n.switches }

// AttachPort creates an egress port on from, pointing at to, with the
// given link parameters and queue, and registers it with the owning
// node. Host ports become the host NIC (a host has exactly one). The
// port is named after its two ends (see Port.Name).
func (n *Network) AttachPort(from, to Node, rate sim.Rate, delay sim.Time, q Queue) *Port {
	if q == nil {
		q = NewDropTail(0)
	}
	p := n.portSlab.One()
	*p = Port{
		owner:  from,
		net:    n,
		shard:  shardOf(from),
		queue:  q,
		link:   Link{Rate: rate, Delay: delay, To: to},
		linkID: n.nextLinkID,
	}
	if p.linkID >= 1<<linkIDBits {
		panic("netsim: too many ports for the arrival key space")
	}
	n.nextLinkID++
	switch node := from.(type) {
	case *Host:
		if node.nic != nil {
			panic(fmt.Sprintf("netsim: host %s already has a NIC", node.name))
		}
		node.nic = p
	case *Switch:
		node.ports = append(node.ports, p)
	default:
		panic("netsim: unknown node type")
	}
	return p
}

// Owns reports whether node is assigned to this shard.
func (s *Shard) Owns(node Node) bool { return shardOf(node) == s }

// shardOf returns the shard a node is assigned to.
func shardOf(node Node) *Shard {
	switch v := node.(type) {
	case *Host:
		return v.shard
	case *Switch:
		return v.shard
	}
	panic("netsim: unknown node type")
}

// Connect creates the two unidirectional ports of a full-duplex link
// between a and b, using qa for a's egress queue and qb for b's. Either
// queue may be nil for an unbounded drop-tail.
func (n *Network) Connect(a, b Node, rate sim.Rate, delay sim.Time, qa, qb Queue) (ab, ba *Port) {
	ab = n.AttachPort(a, b, rate, delay, qa)
	ba = n.AttachPort(b, a, rate, delay, qb)
	return ab, ba
}

// Partition splits the network across nshards engine shards. assign maps
// every node ID to a shard index in [0, nshards); the conventional
// assignment (hosts with their ToR, other switches round-robin) is
// computed by the experiment runner, but any assignment is correct —
// the synchronization lookahead is the global minimum link delay, so no
// partition can leak an event into a shard's past.
//
// Partition must run after the topology is built and before any traffic
// or protocol state is created: counters must still be zero and no
// events may be pending, because nothing is migrated. Shard 0 keeps the
// network's original engine; the others get fresh engines of the same
// default scheduler kind. Calling it with nshards == 1 is a no-op.
func (n *Network) Partition(nshards int, assign func(Node) int) {
	if nshards <= 1 {
		return
	}
	if len(n.shards) != 1 {
		panic("netsim: network already partitioned")
	}
	if n.Engine.Executed != 0 || n.Engine.Pending() != 0 || n.Injected() != 0 {
		panic("netsim: Partition must run on a quiet, freshly built network")
	}
	n.minDelay = n.minLinkDelay()
	if n.minDelay <= 0 {
		panic("netsim: sharded execution needs every link delay > 0 (zero lookahead)")
	}
	shards := make([]*Shard, nshards)
	shards[0] = n.shards[0]
	for i := 1; i < nshards; i++ {
		// New shards inherit shard 0's ECMP salt so a salt set before
		// Partition stays network-wide.
		shards[i] = &Shard{idx: i, net: n, eng: sim.NewEngine(), ecmpSalt: shards[0].ecmpSalt, packets: packetPool()}
	}
	for _, s := range shards {
		s.out = make([][]xrec, nshards)
	}
	n.shards = shards
	place := func(node Node, sh *Shard) {
		switch v := node.(type) {
		case *Host:
			v.shard = sh
			if v.nic != nil {
				v.nic.shard = sh
			}
		case *Switch:
			v.shard = sh
			for _, p := range v.ports {
				p.shard = sh
			}
		}
	}
	for _, h := range n.hosts {
		idx := assign(h)
		if idx < 0 || idx >= nshards {
			panic(fmt.Sprintf("netsim: host %s assigned to shard %d of %d", h.name, idx, nshards))
		}
		place(h, shards[idx])
	}
	for _, sw := range n.switches {
		idx := assign(sw)
		if idx < 0 || idx >= nshards {
			panic(fmt.Sprintf("netsim: switch %s assigned to shard %d of %d", sw.name, idx, nshards))
		}
		place(sw, shards[idx])
	}
}

// eachPort calls fn for every port: host NICs, then switch ports, in
// creation order.
func (n *Network) eachPort(fn func(*Port)) {
	for _, h := range n.hosts {
		if h.nic != nil {
			fn(h.nic)
		}
	}
	for _, sw := range n.switches {
		for _, p := range sw.ports {
			fn(p)
		}
	}
}

// minLinkDelay scans every port's link delay.
func (n *Network) minLinkDelay() sim.Time {
	min := sim.Time(0)
	seen := false
	n.eachPort(func(p *Port) {
		if !seen || p.link.Delay < min {
			min, seen = p.link.Delay, true
		}
	})
	return min
}

func (s *Shard) noteDrop(pkt *Packet) {
	s.Dropped++
	s.DroppedByType[pkt.Type]++
	if s.DropHook != nil {
		s.DropHook(pkt)
	}
}

func (s *Shard) noteDeliver(*Packet) { s.Delivered++ }

func (s *Shard) noteNoRoute(pkt *Packet) {
	s.NoRouteDrops++
	s.noteDrop(pkt)
}

// SetJitter adds a seeded uniform random delay in (0, max] to every
// packet delivery, modelling store-and-forward processing variance.
// Perfectly periodic traffic otherwise phase-locks against deterministic
// drop-tail queues (the classic simulation artifact where one of two
// synchronized senders loses every drop race); a few tens of
// nanoseconds break the lock without perturbing timing-sensitive
// behaviour. Keep max below the smallest packet serialization time so
// per-link packet order is preserved.
//
// Each port draws from its own stream sub-seeded from seed and the port
// name, so the draw a delivery sees depends only on that link's own
// packet sequence — never on event interleaving across links — which
// keeps jitter identical across scheduler kinds and shard counts.
//
// SetJitter is a construction-time setting: it panics once any port of
// the network has drawn (or the network was released), because a
// stream draws a batch ahead under the bound it was armed with and
// those draws cannot be re-drawn under another. Calling it again before
// the first delivery simply replaces the setting.
func (n *Network) SetJitter(max sim.Time, seed int64) {
	drawn := n.released
	n.eachPort(func(p *Port) { drawn = drawn || p.jit != nil })
	if drawn {
		panic("netsim: SetJitter after a port has drawn jitter")
	}
	n.jitterMax = max
	n.jitterSeed = seed
}

// Release ends the network's run: every port hands its jitter stream
// back to the process-wide free list, where the next network's ports
// re-seed it (see Port.jit). Call it once nothing will run the
// network again — the experiment runner does so as the last step of a
// run. A released network
// panics on Run and on a jitter draw rather than restart a stream
// silently, even where a stream had buffered draws left; everything
// else it holds (counters, monitors, queues) stays readable. A network
// that is never released keeps its streams. Releasing twice is a no-op.
func (n *Network) Release() {
	n.released = true
	n.releaseJitter()
}

// SetECMPSalt replaces the network-wide ECMP hash salt. Every switch
// folds the salt into its per-flow path choice, so changing it mid-run
// moves multipath flows onto freshly chosen equal-cost paths — the
// fault layer's Rehash event. The default salt of zero preserves the
// pre-salt hash values bit-for-bit, keeping historical golden traces
// valid. The salt is stored per shard; this setter writes every copy
// and is therefore a setup-time (or single-shard) operation — mid-run
// rotation on a partitioned network goes through Shard.SetECMPSalt,
// one same-instant event per shard.
func (n *Network) SetECMPSalt(salt uint64) {
	for _, s := range n.shards {
		s.ecmpSalt = salt
	}
}

// ECMPSalt returns shard 0's copy of the ECMP hash salt (all copies are
// equal outside the instant a sharded Rehash event is applying).
func (n *Network) ECMPSalt() uint64 { return n.shards[0].ecmpSalt }

// SetECMPSalt replaces this shard's copy of the ECMP hash salt. The
// fault layer's Rehash event calls it from a same-instant event on
// every shard, so all switches — whichever shard owns them — hash with
// the new salt from the same virtual time onward, without any shard
// reading another's state. Call only from the shard's own goroutine.
func (s *Shard) SetECMPSalt(salt uint64) { s.ecmpSalt = salt }
