// Package netsim implements a deterministic packet-level network
// simulator: packets, queues (drop-tail, strict-priority, NDP-style
// trimming), egress ports with serialization and propagation delay,
// switches with ECMP forwarding, hosts, the AMRT anti-ECN egress marker,
// and per-port monitors.
//
// The simulator is store-and-forward. Each egress port serializes one
// packet at a time at the link rate, then the link adds its propagation
// delay before the packet is delivered to the next node. All state is
// owned by a single sim.Engine and must be driven from one goroutine.
package netsim

import (
	"fmt"
	"unsafe"
)

// NodeID identifies a host or switch within a Network.
type NodeID int32

// FlowID identifies a flow end-to-end. ECMP hashes it, so packets of one
// flow follow one path.
type FlowID int64

// PacketType distinguishes data from the control packets the four
// transports use.
type PacketType uint8

// Packet types. Control packets (everything but Data) are ControlSize
// bytes on the wire and travel at the highest priority.
const (
	Data   PacketType = iota // payload-carrying packet
	RTS                      // request-to-send, announces a new flow and its size
	Grant                    // receiver-driven trigger (AMRT, Homa)
	Token                    // pHost per-packet token
	Pull                     // NDP pull
	Ack                      // per-packet acknowledgment
	Nack                     // NDP: trimmed-packet notification from receiver
	Header                   // NDP: a Data packet whose payload was trimmed
	numPacketTypes
)

var packetTypeNames = [numPacketTypes]string{
	"DATA", "RTS", "GRANT", "TOKEN", "PULL", "ACK", "NACK", "HEADER",
}

// String returns the conventional name of the packet type.
func (t PacketType) String() string {
	if int(t) < len(packetTypeNames) {
		return packetTypeNames[t]
	}
	return fmt.Sprintf("PacketType(%d)", uint8(t))
}

// Wire sizes in bytes.
const (
	// MSS is the maximum segment size used both for full data packets
	// and, per the paper, as the reference size in the anti-ECN marking
	// rule regardless of the actual packet length.
	MSS = 1500
	// ControlSize is the wire size of control packets (grants, tokens,
	// pulls, RTS, ACK/NACK) and of trimmed NDP headers.
	ControlSize = 64
)

// Priority levels. Queues serve lower levels first.
const (
	PrioControl   uint8 = 0 // grants, tokens, pulls, RTS, trimmed headers
	PrioHigh      uint8 = 1 // e.g. Homa unscheduled data
	PrioData      uint8 = 2 // regular data
	NumPriorities       = 3
)

// Packet is a simulated packet. Packets are passed by pointer and owned
// by exactly one queue or link at a time; transports allocate them (via
// Shard.NewPacket) and receivers consume them.
//
// Packets are recycled. The simulator releases a packet as soon as its
// journey ends: right after the destination host's Handler returns, or
// at the drop site for packets a queue rejects (after the DropHook, if
// any, has run). Handlers, OnData callbacks, and drop hooks therefore
// must not retain a *Packet past their own return — copy the struct (or
// the fields needed) instead.
type Packet struct {
	// The fields are ordered widest first, so the struct is exactly one
	// 64-byte cache line and fills its slabs without padding
	// (TestPacketIsOneCacheLine).

	Flow FlowID
	Size int // bytes on the wire

	// FlowSize carries the total flow length in bytes on RTS and
	// first-window data packets so the receiver can size its state.
	FlowSize int64

	// Demand is the sender-advertised backlog in bytes — data queued at
	// the sender but not yet handed to the NIC — piggybacked on RTS and
	// data packets by sender-informed transports (SIRD). Receivers use
	// the latest advertisement to weight credit allocation; protocols
	// that do not advertise leave it zero.
	Demand int64

	// next links the packet into the fifo of the queue that holds it; nil
	// while the packet is on a link or with a transport.
	next *Packet

	Seq      int32  // data packet index within the flow (0-based)
	Src, Dst NodeID // source and destination hosts

	// Count is the number of data packets a grant authorizes (Homa
	// bursts several; AMRT encodes 1 or GrantBurst via Echo instead).
	Count int16

	Type PacketType
	Prio uint8 // strict-priority level, 0 highest

	// CE is the anti-ECN congestion-experienced bit. Per the paper the
	// sender initializes it to 1 (spare bandwidth assumed); each egress
	// port ANDs in its own observation, so it survives end-to-end only
	// if every hop saw an idle gap of at least one MSS.
	CE bool

	// Echo is the ECN-Echo flag on grants: the receiver copies the CE
	// bit of the data packet that triggered the grant.
	Echo bool

	// Trimmed marks an NDP data packet whose payload was cut; only the
	// header is forwarded and the receiver must request retransmission.
	Trimmed bool

	// Hops counts switch traversals, for path-length assertions.
	Hops int8
}

// The packet free list. Each shard recycles packets through its own
// chain (linked through Packet.next, like a queue's fifo), so a run's
// packets belong to the run: no packet is shared between simulations,
// the collector cannot empty the list mid-run, and allocation counts
// repeat exactly. (Ports' jitter streams are the one thing runs do
// share, through jitterStreams: a stream holds no pointer into the run
// that used it, re-seeding rewrites all of its generator's state, and
// arming discards the draws it had buffered, so unlike a stale packet it
// cannot carry anything from one run to the next.)
// An empty chain is refilled one slab at a time; slabs double
// from the 1 KB to the 8 KB size class, so a two-host run pays for a
// dozen packets and a fabric-wide one makes one allocation per hundred.
//
// A packet is released on the shard where its journey ends, which need
// not be the shard that built it: one-directional cross-shard traffic
// grows the receiving shard's chain while the sending shard keeps
// refilling. maxFreePackets bounds that — a release onto a full chain
// leaves the packet to the collector — without any exchange between
// shards.
const (
	packetBytes    = int(unsafe.Sizeof(Packet{}))
	minSlabBytes   = 1 << 10
	maxSlabBytes   = 8 << 10
	maxFreePackets = 8192
)

// NewPacket returns a zeroed Packet from the shard's free list. Callers
// fill it and hand it to Host.Send (or a Port/Node directly); ownership
// then belongs to the network until the packet is delivered or dropped,
// at which point the simulator releases it on the shard where that
// happens. Call only from the shard's own goroutine.
func (s *Shard) NewPacket() *Packet {
	if s.free == nil {
		s.refill()
	}
	p := s.free
	s.free, p.next = p.next, nil
	s.nfree--
	return p
}

// refill chains one fresh slab of packets onto the empty free list.
func (s *Shard) refill() {
	if s.slabBytes < maxSlabBytes {
		s.slabBytes = max(minSlabBytes, 2*s.slabBytes)
	}
	slab := make([]Packet, s.slabBytes/packetBytes)
	for i := range slab[:len(slab)-1] {
		slab[i].next = &slab[i+1]
	}
	s.free, s.nfree = &slab[0], len(slab)
}

// ReleasePacket zeroes pkt and puts it on the shard's free list. Only
// the current owner may release, on its own shard's goroutine; the
// simulator does so at the delivery and drop recycle points, so
// transports normally release only packets they built and never sent.
// Releasing a packet that is still linked into a queue, or twice in a
// row, panics.
func (s *Shard) ReleasePacket(pkt *Packet) {
	if pkt.next != nil || pkt == s.free {
		panic(fmt.Sprintf("netsim: released packet %v is still queued or already free", pkt))
	}
	*pkt = Packet{}
	if s.nfree >= maxFreePackets {
		return
	}
	pkt.next, s.free = s.free, pkt
	s.nfree++
}

// NewPacket returns a zeroed Packet outside any run's free list, for
// tests and tools that inject packets by hand. The network releases it
// like any other, onto the free list of the shard where its journey
// ends.
func NewPacket() *Packet { return new(Packet) }

// ReleasePacket zeroes pkt and leaves it to the collector: the
// counterpart of the package-level NewPacket for a packet that never
// entered a network.
func ReleasePacket(pkt *Packet) { *pkt = Packet{} }

// IsControl reports whether the packet occupies a control (highest)
// priority level: every type except full data packets, plus trimmed
// headers.
func (p *Packet) IsControl() bool { return p.Type != Data || p.Trimmed }

// String formats a packet compactly for logs and test failures.
func (p *Packet) String() string {
	flags := ""
	if p.CE {
		flags += " CE"
	}
	if p.Echo {
		flags += " ECHO"
	}
	if p.Trimmed {
		flags += " TRIM"
	}
	return fmt.Sprintf("%s f%d #%d %dB %d->%d%s", p.Type, p.Flow, p.Seq, p.Size, p.Src, p.Dst, flags)
}
