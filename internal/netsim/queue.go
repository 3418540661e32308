package netsim

import (
	"math/rand"

	"amrt/internal/sim"
	"amrt/internal/slab"
)

// Queue is the buffering discipline of an egress port. Enqueue returns
// false when the packet is dropped (the port then records the drop).
// Implementations are not safe for concurrent use; the single-threaded
// engine guarantees serial access.
type Queue interface {
	Enqueue(pkt *Packet, now sim.Time) bool
	Dequeue() *Packet
	// Len is the number of queued packets.
	Len() int
	// Bytes is the total queued payload in bytes.
	Bytes() int
}

// QueueFactory builds one queue per egress port, carving it from s.
// Protocols choose the factory that matches their switch behaviour
// (plain drop-tail, priority levels, trimming, or a capped data queue).
// A builder calls a factory once per port of one role, host NICs or
// switch ports, with that role's Slabs.
type QueueFactory func(s *Slabs) Queue

// BoundedQueue is implemented by queues with a known total packet-count
// capacity. The audit subsystem uses it to check the queue-bound
// invariant (Len never exceeds CapPackets); a return of 0 means
// unbounded and the check is skipped. Wrapper queues delegate to their
// inner queue.
type BoundedQueue interface {
	CapPackets() int
}

// fifo is an intrusive FIFO of packets: a singly linked list through
// Packet.next with a tail pointer, so push and pop are O(1), allocate
// nothing and hold no memory of their own however deep the queue has
// been. A packet is owned by one queue or link at a time, so it sits in
// at most one fifo and one link field is enough.
type fifo struct {
	head, tail *Packet
	n          int
	bytes      int
}

func (f *fifo) push(p *Packet) {
	p.next = nil
	if f.tail == nil {
		f.head = p
	} else {
		f.tail.next = p
	}
	f.tail = p
	f.n++
	f.bytes += p.Size
}

func (f *fifo) pop() *Packet {
	p := f.head
	if p == nil {
		return nil
	}
	if f.head = p.next; f.head == nil {
		f.tail = nil
	}
	p.next = nil
	f.n--
	f.bytes -= p.Size
	return p
}

func (f *fifo) len() int { return f.n }

// DropTailQueue is a FIFO with a packet-count capacity; packets arriving
// at a full queue are dropped.
type DropTailQueue struct {
	q   fifo
	cap int
}

// NewDropTail returns a drop-tail queue holding at most capPackets
// packets. A non-positive capacity means unbounded.
func (s *Slabs) NewDropTail(capPackets int) *DropTailQueue {
	q := carve(s, func(s *Slabs) *slab.Slab[DropTailQueue] { return &s.dropTail })
	q.cap = capPackets
	return q
}

// NewDropTail is Slabs.NewDropTail for a queue outside any fabric.
func NewDropTail(capPackets int) *DropTailQueue { return (*Slabs)(nil).NewDropTail(capPackets) }

// Enqueue implements Queue.
func (d *DropTailQueue) Enqueue(pkt *Packet, _ sim.Time) bool {
	if d.cap > 0 && d.q.len() >= d.cap {
		return false
	}
	d.q.push(pkt)
	return true
}

// Dequeue implements Queue.
func (d *DropTailQueue) Dequeue() *Packet { return d.q.pop() }

// Len implements Queue.
func (d *DropTailQueue) Len() int { return d.q.len() }

// Bytes implements Queue.
func (d *DropTailQueue) Bytes() int { return d.q.bytes }

// CapPackets implements BoundedQueue (0 = unbounded).
func (d *DropTailQueue) CapPackets() int { return d.cap }

// PriorityQueue is a strict-priority queue with NumPriorities levels,
// each an independent drop-tail FIFO with its own capacity. Dequeue
// serves the lowest-numbered non-empty level.
type PriorityQueue struct {
	levels [NumPriorities]fifo
	caps   [NumPriorities]int
}

// NewPriority is Slabs.NewPriority for a queue outside any fabric.
func NewPriority(caps ...int) *PriorityQueue { return (*Slabs)(nil).NewPriority(caps...) }

// NewPriority returns a strict-priority queue. caps gives the per-level
// packet capacity; missing trailing entries default to the last given
// value, and non-positive values mean unbounded.
func (s *Slabs) NewPriority(caps ...int) *PriorityQueue {
	p := carve(s, func(s *Slabs) *slab.Slab[PriorityQueue] { return &s.priority })
	last := 0
	for i := 0; i < NumPriorities; i++ {
		if i < len(caps) {
			last = caps[i]
		}
		p.caps[i] = last
	}
	return p
}

// Enqueue implements Queue.
func (p *PriorityQueue) Enqueue(pkt *Packet, _ sim.Time) bool {
	lvl := pkt.Prio
	if lvl >= NumPriorities {
		lvl = NumPriorities - 1
	}
	if p.caps[lvl] > 0 && p.levels[lvl].len() >= p.caps[lvl] {
		return false
	}
	p.levels[lvl].push(pkt)
	return true
}

// Dequeue implements Queue.
func (p *PriorityQueue) Dequeue() *Packet {
	for i := range p.levels {
		if p.levels[i].len() > 0 {
			return p.levels[i].pop()
		}
	}
	return nil
}

// Len implements Queue.
func (p *PriorityQueue) Len() int {
	n := 0
	for i := range p.levels {
		n += p.levels[i].len()
	}
	return n
}

// Bytes implements Queue.
func (p *PriorityQueue) Bytes() int {
	n := 0
	for i := range p.levels {
		n += p.levels[i].bytes
	}
	return n
}

// LevelLen returns the number of packets queued at one priority level.
func (p *PriorityQueue) LevelLen(lvl uint8) int { return p.levels[lvl].len() }

// CapPackets implements BoundedQueue: the sum of the per-level caps, or
// 0 (unbounded) if any level is uncapped.
func (p *PriorityQueue) CapPackets() int {
	total := 0
	for _, c := range p.caps {
		if c <= 0 {
			return 0
		}
		total += c
	}
	return total
}

// LossyQueue wraps another queue and randomly drops a seeded fraction
// of arriving data packets before they reach it — a failure-injection
// harness for loss-recovery testing (it models corruption/soft-error
// loss rather than congestion loss, so control packets pass through by
// default; set CtrlDropProb to lift that sparing).
type LossyQueue struct {
	Inner Queue
	// DropProb is the per-data-packet drop probability in [0,1).
	DropProb float64
	// CtrlDropProb, when positive, additionally drops control packets
	// (grants, tokens, pulls, ACKs, NACKs, RTS, trimmed headers) with
	// the given independent probability. The default 0 preserves the
	// historical control-packet sparing — and the wrapper's random
	// stream — exactly.
	CtrlDropProb float64
	rng          *rand.Rand
	// Injected counts packets dropped by the wrapper itself;
	// CtrlInjected is the control-packet subset of Injected.
	Injected     int64
	CtrlInjected int64
}

// NewLossy wraps inner with seeded random data-packet loss.
func (s *Slabs) NewLossy(inner Queue, dropProb float64, seed int64) *LossyQueue {
	l := carve(s, func(s *Slabs) *slab.Slab[LossyQueue] { return &s.lossy })
	l.Inner, l.DropProb, l.rng = inner, dropProb, sim.NewRNG(seed)
	return l
}

// Enqueue implements Queue.
func (l *LossyQueue) Enqueue(pkt *Packet, now sim.Time) bool {
	if pkt.Type == Data && !pkt.Trimmed {
		if l.rng.Float64() < l.DropProb {
			l.Injected++
			return false
		}
	} else if l.CtrlDropProb > 0 && l.rng.Float64() < l.CtrlDropProb {
		l.Injected++
		l.CtrlInjected++
		return false
	}
	return l.Inner.Enqueue(pkt, now)
}

// Dequeue implements Queue.
func (l *LossyQueue) Dequeue() *Packet { return l.Inner.Dequeue() }

// Len implements Queue.
func (l *LossyQueue) Len() int { return l.Inner.Len() }

// Bytes implements Queue.
func (l *LossyQueue) Bytes() int { return l.Inner.Bytes() }

// CapPackets implements BoundedQueue by delegating to the wrapped queue.
func (l *LossyQueue) CapPackets() int { return queueCap(l.Inner) }

// GilbertElliottQueue wraps another queue with the Gilbert–Elliott
// two-state burst-loss model: arrivals flip a hidden good/bad channel
// state with per-packet transition probabilities, and data packets are
// dropped with a state-dependent probability. Unlike LossyQueue's
// independent (Bernoulli) loss, drops cluster into bursts — the loss
// pattern of a failing optic or a microwave fade — which stresses
// recovery paths that tolerate scattered holes but stall on a run of
// consecutive ones. Control packets are spared (compose with a
// LossyQueue CtrlDropProb wrapper to lose those too).
type GilbertElliottQueue struct {
	Inner Queue
	// PGoodBad and PBadGood are the per-arrival transition
	// probabilities; the stationary bad-state fraction is
	// PGoodBad/(PGoodBad+PBadGood) and the mean burst length in
	// arrivals is 1/PBadGood.
	PGoodBad, PBadGood float64
	// LossBad and LossGood are the per-data-packet drop probabilities
	// in each state (classic Gilbert: LossGood = 0).
	LossBad, LossGood float64
	rng               *rand.Rand
	bad               bool
	// Injected counts data packets dropped by the wrapper; Bursts
	// counts good→bad transitions (number of loss episodes).
	Injected int64
	Bursts   int64
}

// NewGilbertElliott wraps inner with seeded two-state burst loss.
func (s *Slabs) NewGilbertElliott(inner Queue, pGoodBad, pBadGood, lossBad, lossGood float64, seed int64) *GilbertElliottQueue {
	g := carve(s, func(s *Slabs) *slab.Slab[GilbertElliottQueue] { return &s.gilbert })
	g.Inner, g.PGoodBad, g.PBadGood = inner, pGoodBad, pBadGood
	g.LossBad, g.LossGood, g.rng = lossBad, lossGood, sim.NewRNG(seed)
	return g
}

// Enqueue implements Queue.
func (g *GilbertElliottQueue) Enqueue(pkt *Packet, now sim.Time) bool {
	// State transitions are clocked by every arrival (control included)
	// so burst duration tracks wire activity, not just data volume.
	if g.bad {
		if g.rng.Float64() < g.PBadGood {
			g.bad = false
		}
	} else if g.rng.Float64() < g.PGoodBad {
		g.bad = true
		g.Bursts++
	}
	if pkt.Type == Data && !pkt.Trimmed {
		loss := g.LossGood
		if g.bad {
			loss = g.LossBad
		}
		if loss > 0 && g.rng.Float64() < loss {
			g.Injected++
			return false
		}
	}
	return g.Inner.Enqueue(pkt, now)
}

// Dequeue implements Queue.
func (g *GilbertElliottQueue) Dequeue() *Packet { return g.Inner.Dequeue() }

// Len implements Queue.
func (g *GilbertElliottQueue) Len() int { return g.Inner.Len() }

// Bytes implements Queue.
func (g *GilbertElliottQueue) Bytes() int { return g.Inner.Bytes() }

// CapPackets implements BoundedQueue by delegating to the wrapped queue.
func (g *GilbertElliottQueue) CapPackets() int { return queueCap(g.Inner) }

// queueCap returns a queue's declared packet capacity, or 0 when it does
// not implement BoundedQueue.
func queueCap(q Queue) int {
	if b, ok := q.(BoundedQueue); ok {
		return b.CapPackets()
	}
	return 0
}

// ECNQueue is the classic DCTCP-style switch buffer: a drop-tail FIFO
// that sets the CE bit on arriving data packets whenever the
// instantaneous queue length is at or above the marking threshold. Note
// the bit's meaning is the opposite of AMRT's anti-ECN convention (here
// CE=1 signals congestion); the two disciplines are never mixed in one
// network.
type ECNQueue struct {
	q      fifo
	cap    int
	markAt int
	// Marked counts CE marks applied at this port.
	Marked int64
}

// NewECN returns an ECN-marking drop-tail queue with the given packet
// capacity and marking threshold.
func (s *Slabs) NewECN(capPackets, markAt int) *ECNQueue {
	e := carve(s, func(s *Slabs) *slab.Slab[ECNQueue] { return &s.ecn })
	e.cap, e.markAt = capPackets, markAt
	return e
}

// Enqueue implements Queue.
func (e *ECNQueue) Enqueue(pkt *Packet, _ sim.Time) bool {
	if e.cap > 0 && e.q.len() >= e.cap {
		return false
	}
	if pkt.Type == Data && e.markAt > 0 && e.q.len() >= e.markAt {
		pkt.CE = true
		e.Marked++
	}
	e.q.push(pkt)
	return true
}

// Dequeue implements Queue.
func (e *ECNQueue) Dequeue() *Packet { return e.q.pop() }

// Len implements Queue.
func (e *ECNQueue) Len() int { return e.q.len() }

// Bytes implements Queue.
func (e *ECNQueue) Bytes() int { return e.q.bytes }

// CapPackets implements BoundedQueue (0 = unbounded).
func (e *ECNQueue) CapPackets() int { return e.cap }

// TrimmingQueue is NDP's switch buffer: data packets beyond the trim
// threshold have their payload cut to a ControlSize header, marked
// Trimmed, and queued in the high-priority control band instead of being
// dropped. Control packets and headers share the control band, which has
// its own (large) capacity; only when that band overflows are packets
// dropped.
type TrimmingQueue struct {
	control    fifo
	data       fifo
	trimAt     int
	controlCap int
	// Trims counts payloads cut at this port, for tests and stats.
	Trims int64
}

// NewTrimming returns an NDP trimming queue. trimAt is the data-queue
// length (in packets) at which arriving data packets are trimmed;
// controlCap bounds the control/header band.
func (s *Slabs) NewTrimming(trimAt, controlCap int) *TrimmingQueue {
	q := carve(s, func(s *Slabs) *slab.Slab[TrimmingQueue] { return &s.trimming })
	q.trimAt, q.controlCap = trimAt, controlCap
	return q
}

// NewTrimming is Slabs.NewTrimming for a queue outside any fabric.
func NewTrimming(trimAt, controlCap int) *TrimmingQueue {
	return (*Slabs)(nil).NewTrimming(trimAt, controlCap)
}

// Enqueue implements Queue.
func (q *TrimmingQueue) Enqueue(pkt *Packet, _ sim.Time) bool {
	if pkt.Type == Data && !pkt.Trimmed {
		if q.data.len() < q.trimAt {
			q.data.push(pkt)
			return true
		}
		// Trim: keep only the header, promote to the control band.
		pkt.Trimmed = true
		pkt.Size = ControlSize
		pkt.Prio = PrioControl
		q.Trims++
	}
	if q.controlCap > 0 && q.control.len() >= q.controlCap {
		return false
	}
	q.control.push(pkt)
	return true
}

// Dequeue implements Queue.
func (q *TrimmingQueue) Dequeue() *Packet {
	if q.control.len() > 0 {
		return q.control.pop()
	}
	return q.data.pop()
}

// Len implements Queue.
func (q *TrimmingQueue) Len() int { return q.control.len() + q.data.len() }

// Bytes implements Queue.
func (q *TrimmingQueue) Bytes() int { return q.control.bytes + q.data.bytes }

// DataLen returns the number of untrimmed data packets queued.
func (q *TrimmingQueue) DataLen() int { return q.data.len() }

// CapPackets implements BoundedQueue: the data band holds at most trimAt
// packets (arrivals beyond it are trimmed into the control band), so the
// total bound is trimAt + controlCap; 0 when the control band is
// unbounded.
func (q *TrimmingQueue) CapPackets() int {
	if q.controlCap <= 0 {
		return 0
	}
	return q.trimAt + q.controlCap
}
