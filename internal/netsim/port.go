package netsim

import (
	"fmt"

	"amrt/internal/sim"
)

// Link is the unidirectional wire behind an egress port: a rate and a
// propagation delay toward a destination node.
type Link struct {
	Rate  sim.Rate
	Delay sim.Time
	To    Node
}

// DequeueMarker is invoked at the instant a packet begins transmission on
// an egress port, before serialization. AMRT's anti-ECN marker implements
// it; ports without a marker skip the hook.
type DequeueMarker interface {
	OnDequeue(port *Port, pkt *Packet, now sim.Time)
}

// Port is an egress port: a queue draining onto a link, serializing one
// packet at a time. The zero value is not usable; ports are created by
// Network.Connect.
type Port struct {
	name  string
	owner Node
	net   *Network
	queue Queue
	link  Link

	// shard is the engine shard that owns this port: the owner node's
	// shard. All port state is read and written only from that shard's
	// goroutine.
	shard *Shard
	// linkID is the port's creation-order index; together with linkSeq
	// (the per-port delivery counter) it forms the deterministic arrival
	// key that makes same-instant delivery order independent of the
	// partition. See the key layout in parallel.go.
	linkID  uint64
	linkSeq uint64
	// jit is the port's private jitter stream, derived from the network
	// jitter seed and the port name so draws are independent of the
	// order ports transmit in (and hence of the shard count). The stream
	// itself is not the run's: the first draw takes one off the
	// process-wide free list (jitterStreams) and re-seeds it, and
	// Network.Release hands it back for the next run's ports. Streams
	// are the one thing runs share, and safely: re-seeding rewrites all
	// of a generator's state and arming discards the buffered draws, so
	// a recycled stream draws exactly what a new one would, and which
	// stream a port gets never shows.
	jit *jitterStream

	// down is the administrative state: a down port parks its queue
	// (the transmitter halts; arriving packets still enqueue subject to
	// the queue's own caps) until it is brought back up. Switch ECMP
	// skips down ports, so only traffic with no surviving route — or
	// traffic already committed to this egress — waits here.
	down bool
	// degraded, when non-zero, replaces the nominal link rate for
	// serialization (fault injection: a flapping optic renegotiating a
	// lower speed).
	degraded sim.Rate

	// busy marks an open transmission: one whose completion has not been
	// booked yet. Transmit completion is lazy. A dequeue records when the
	// transmission ends (busyUntil) and reserves the sequence number its
	// tx-done event would have drawn (txSeq), but the event itself is
	// scheduled only once a packet waits behind the transmission (txWake).
	// Otherwise whoever touches the port next books the completion, as of
	// busyUntil, provided position (busyUntil, txSeq) has passed — see
	// settle. Everything that reads the fields below, TxPackets, TxBytes
	// or the monitor's byte counts settles first, so all of them read
	// exactly what an eager tx-done event would have left.
	busy      bool
	txWake    bool
	busyUntil sim.Time
	txSeq     uint64
	// txSize is the size of the packet being serialized (valid while
	// busy), kept here so completion needs no per-packet state.
	txSize int64
	// lastTxEnd is when the previous transmission finished; the anti-ECN
	// marker compares the current dequeue instant against it to measure
	// the idle gap. everSent distinguishes a genuinely idle port.
	lastTxEnd sim.Time
	everSent  bool

	// Marker, if non-nil, observes every dequeued packet (AMRT).
	Marker DequeueMarker
	// Monitor, if non-nil, accumulates transmitted bytes and queue
	// watermarks for utilization measurements.
	Monitor *PortMonitor

	// TxPackets and TxBytes count completed transmissions. A reader in
	// the middle of a run calls Busy first, which books a transmission
	// that has ended; Network.Run does so for every port on return.
	TxPackets int64
	TxBytes   int64
	// Drops counts packets rejected by the queue.
	Drops int64
	// Enqueued counts packets the queue accepted; Flushed counts packets
	// discarded by FlushQueue (node crashes, switch reboots). Together
	// with the live occupancy they close the per-port conservation
	// identity the audit subsystem checks:
	//
	//	Enqueued == TxPackets + Flushed + queue.Len() + (busy ? 1 : 0)
	Enqueued int64
	Flushed  int64
}

// Name returns the diagnostic name assigned at creation, e.g. "leaf0->core1".
func (p *Port) Name() string { return p.name }

// Queue exposes the port's buffering discipline (for tests and monitors).
func (p *Port) Queue() Queue { return p.queue }

// Owner returns the node the port transmits for (its egress side).
func (p *Port) Owner() Node { return p.owner }

// Shard returns the engine shard that owns the port — its owner node's
// shard. Administrative actions (SetAdminDown, SetDegradedRate,
// FlushQueue) must run on this shard's goroutine; the fault layer homes
// its per-port events here.
func (p *Port) Shard() *Shard { return p.shard }

// Link returns the attached link parameters.
func (p *Port) Link() Link { return p.link }

// LastTxEnd returns the time the port last finished serializing a packet.
func (p *Port) LastTxEnd() (sim.Time, bool) {
	p.settle()
	return p.lastTxEnd, p.everSent
}

// AdminDown reports the administrative state set by SetAdminDown.
func (p *Port) AdminDown() bool { return p.down }

// Busy reports whether a packet is currently serializing on the port.
func (p *Port) Busy() bool {
	p.settle()
	return p.busy
}

// FlushQueue discards every packet parked in the port's queue — a node
// crash or switch reboot clearing packet memory. Flushed packets count
// as network drops (conservation holds) and in the port's Flushed
// counter; the packet already serializing, if any, is on the wire and
// unaffected.
func (p *Port) FlushQueue() {
	for {
		pkt := p.queue.Dequeue()
		if pkt == nil {
			return
		}
		p.Flushed++
		p.shard.noteDrop(pkt)
		p.shard.ReleasePacket(pkt)
	}
}

// SetAdminDown changes the port's administrative state. Taking a port
// down halts its transmitter after the in-flight packet (already on the
// wire) finishes; queued packets park. Bringing it up restarts the
// transmitter immediately — or, if that packet is still serializing,
// as soon as it finishes.
func (p *Port) SetAdminDown(down bool) {
	if p.down == down {
		return
	}
	p.down = down
	if sw, ok := p.owner.(*Switch); ok {
		if down {
			sw.downPorts++
		} else {
			sw.downPorts--
		}
	}
	if !down {
		p.trySend()
	}
}

// SetDegradedRate caps the port's serialization rate at r (fault
// injection); a non-positive r restores the nominal link rate.
func (p *Port) SetDegradedRate(r sim.Rate) {
	if r <= 0 {
		p.degraded = 0
	} else {
		p.degraded = r
	}
}

// EffectiveRate returns the rate the port currently serializes at: the
// degraded rate if one is set, else the nominal link rate.
func (p *Port) EffectiveRate() sim.Rate {
	if p.degraded > 0 {
		return p.degraded
	}
	return p.link.Rate
}

// Send enqueues a packet for transmission, dropping it if the queue
// refuses it, and starts the transmitter if idle. A dropped packet is
// recycled onto the shard's free list after the drop accounting (and
// DropHook) runs.
func (p *Port) Send(pkt *Packet) {
	now := p.shard.eng.Now()
	if !p.queue.Enqueue(pkt, now) {
		p.Drops++
		p.shard.noteDrop(pkt)
		p.shard.ReleasePacket(pkt)
		return
	}
	p.Enqueued++
	if m := p.Monitor; m != nil {
		m.noteQueue(p.queue, now)
	}
	p.trySend()
}

// trySend starts the next transmission if the transmitter is free and
// the port is up, and otherwise makes sure a completion event is coming
// for the packets it leaves queued.
func (p *Port) trySend() {
	if p.down {
		return
	}
	sh := p.shard
	eng := sh.eng
	if p.settle(); p.busy {
		p.wake()
		return
	}
	pkt := p.queue.Dequeue()
	if pkt == nil {
		return
	}
	now := eng.Now()
	if p.Marker != nil {
		p.Marker.OnDequeue(p, pkt, now)
	}
	// A transmission takes at least a nanosecond (Rate.TxTime rounds
	// up), so its end always lies ahead of the dequeue.
	tx := p.EffectiveRate().TxTime(pkt.Size)
	p.busy = true
	p.txSize = int64(pkt.Size)
	p.busyUntil, p.txSeq = now+tx, eng.ReserveSeq()
	p.wake()
	// Custody: a packet bound for another shard leaves this shard's
	// conservation domain here, at the dequeue ("piped out"), and joins
	// the other's on arrival ("piped in"); an intra-shard packet is on
	// this shard's wire until delivery.
	dsh := shardOf(p.link.To)
	if dsh != sh {
		sh.PipedOut++
	} else {
		sh.OnWire++
	}
	// Deliveries are keyed by (linkID, per-port sequence) so that
	// same-instant arrivals dispatch in an order determined by the
	// topology and traffic alone — identical at every shard count.
	at := now + tx + p.link.Delay + p.jitter()
	if p.linkSeq >= 1<<linkSeqBits {
		panic(fmt.Sprintf("netsim: port %s delivery counter overflowed", p.name))
	}
	key := p.linkID<<linkSeqBits | p.linkSeq
	p.linkSeq++
	if dsh != sh {
		sh.out[dsh.idx] = append(sh.out[dsh.idx], xrec{at: at, key: key, h: p, op: opDeliver, arg: pkt})
		return
	}
	eng.ScheduleEventKeyed(at, key, p, opDeliver, pkt)
}

// The events of a packet-hop, dispatched through HandleEvent: always a
// delivery, and a tx-done only when a packet was waiting for the
// transmitter. The port itself is the handler and the packet (for
// opDeliver) the arg, so a forwarded packet allocates nothing.
const (
	opTxDone  int32 = iota // serialization finished, packets queued: send the next
	opDeliver              // propagation finished: hand arg (*Packet) to link.To
)

// HandleEvent implements sim.Handler for the port's own events.
func (p *Port) HandleEvent(op int32, arg any) {
	switch op {
	case opTxDone:
		p.txDone()
	case opDeliver:
		p.deliver(arg.(*Packet))
	}
}

// wake gives the open transmission's tx-done event its reserved place
// in the schedule, once per transmission and only when a packet waits
// behind it: the event's one job is to send that packet.
func (p *Port) wake() {
	if !p.txWake && p.queue.Len() > 0 {
		p.txWake = true
		p.shard.eng.ScheduleEventSeq(p.busyUntil, p.txSeq, p, opTxDone, nil)
	}
}

// txDone is the tx-done event: the transmission is over and a packet was
// queued behind it (unless a flush has taken it since).
func (p *Port) txDone() {
	p.complete()
	p.trySend()
}

// settle books the open transmission if it is over, which means: the
// tx-done event it did not schedule would already have been dispatched.
// Either busyUntil lies before now, or it is now and the event being
// dispatched sorts after the reserved sequence number. Testing the clock
// alone would move the completion across same-instant events and change
// what they see. A transmission whose event is scheduled is left to it.
func (p *Port) settle() {
	if p.busy && !p.txWake && p.shard.eng.Passed(p.busyUntil, p.txSeq) {
		p.complete()
	}
}

// complete books the end of the open transmission as of busyUntil. It
// must not touch the packet: at zero propagation delay the delivery
// fires at the same instant, and once the destination host recycles the
// packet its fields are gone — hence txSize.
func (p *Port) complete() {
	p.busy, p.txWake = false, false
	p.lastTxEnd = p.busyUntil
	p.everSent = true
	p.TxPackets++
	p.TxBytes += p.txSize
	if m := p.Monitor; m != nil {
		m.noteTx(p.txSize)
	}
}

// deliver runs at the far end of the link, on the destination node's
// shard: for a cross-shard link that is not p.shard, and the only port
// state it may read is what Partition froze (shard, link).
func (p *Port) deliver(pkt *Packet) {
	dst := p.link.To
	if dsh := shardOf(dst); dsh != p.shard {
		dsh.PipedIn++
	} else {
		dsh.OnWire--
	}
	pkt.Hops++
	dst.Receive(pkt)
}

// jitter draws this port's per-delivery propagation jitter in
// [1, jitterMax], or 0 when jitter is disabled. Each port has its own
// seeded stream so the draw sequence depends only on the port's own
// transmissions.
func (p *Port) jitter() sim.Time {
	s := p.jit
	if s == nil {
		if p.net.jitterMax <= 0 {
			return 0
		}
		s = p.startJitter()
	}
	return s.next()
}

// String implements fmt.Stringer.
func (p *Port) String() string { return fmt.Sprintf("port(%s)", p.name) }
