package phost

import "amrt/internal/sim"

// expiryEnt is one token (or blind packet) awaiting its arrival: the
// record and sequence it was issued for, and the dispatch position
// (at, pos) its expiry holds — where an eagerly scheduled expiry event
// would have dispatched.
type expiryEnt struct {
	r   *rcvFlow
	at  sim.Time
	pos uint64
	seq int32
}

// expiryBlockLen fills a block to the 4 KB allocator size class: 127
// 32-byte entries plus the link.
const expiryBlockLen = 127

type expiryBlock struct {
	ents [expiryBlockLen]expiryEnt
	next *expiryBlock
}

// expiryQueue holds every token expiry of one Protocol instance (one
// engine shard) in issue order, with one engine event for them all.
//
// The timeout is one constant per instance, so issue order is deadline
// order, and each entry's sequence number — drawn with ReserveSeq at
// issue, exactly the one an eager ScheduleEvent would have drawn — keeps
// its place among same-instant events. Only the first live entry holds
// an event, at its reserved (at, pos); the rest wait in the queue. An
// entry is live while its record has not been removed and its inflight
// bit is set. One bit is enough to tell: an arrived sequence is never
// issued again, and an expired one only after its entry was popped, so
// at most one entry per (record, sequence) is waiting and live. Every
// expiry therefore still dispatches at its own (at, seq), a cancelled
// event is drained without counting in Executed, and no other event's
// sequence moves: the run's bytes and event count are an eager timer's.
//
// Entries live in fixed blocks, recycled through the queue's own free
// list: a live head that waits out the timeout for a lost token holds
// every entry issued since behind it, dead or not, and a slice would
// regrow past them.
type expiryQueue struct {
	eng    *sim.Engine
	expire func(r *rcvFlow, seq int32)

	head, tail *expiryBlock
	hi, ti     int // first waiting entry of head; first free slot of tail
	free       *expiryBlock
	armed      sim.Timer
}

func (q *expiryQueue) empty() bool { return q.head == q.tail && q.hi == q.ti }

// push enters an expiry timeout from now for r's sequence seq, which the
// caller has just marked inflight.
func (q *expiryQueue) push(r *rcvFlow, seq int32, timeout sim.Time) {
	if q.tail == nil {
		q.tail = q.block()
		q.head = q.tail
	} else if q.ti == expiryBlockLen {
		b := q.block()
		q.tail.next, q.tail, q.ti = b, b, 0
	}
	wasEmpty := q.empty()
	q.tail.ents[q.ti] = expiryEnt{r: r, at: q.eng.Now() + timeout, pos: q.eng.ReserveSeq(), seq: seq}
	q.ti++
	if wasEmpty {
		q.arm()
	}
}

// block takes a block off the free list, or allocates one.
func (q *expiryQueue) block() *expiryBlock {
	b := q.free
	if b == nil {
		return new(expiryBlock)
	}
	q.free, b.next = b.next, nil
	return b
}

// arrived is called when r's sequence seq left inflight by arriving. If
// its entry held the event, the event goes to the next live entry.
func (q *expiryQueue) arrived(r *rcvFlow, seq int32) {
	if !q.empty() && q.head.ents[q.hi].r == r && q.head.ents[q.hi].seq == seq {
		q.pass()
	}
}

// dropped is called when record r was removed: its entries are dead.
func (q *expiryQueue) dropped(r *rcvFlow) {
	if !q.empty() && q.head.ents[q.hi].r == r {
		q.pass()
	}
}

// pass cancels the dead head entry's event and arms the next live one.
func (q *expiryQueue) pass() {
	q.armed.Cancel()
	q.pop()
	q.advance()
}

// HandleEvent implements sim.Handler: the head entry's expiry is due.
// The event passes to the next live entry before the expiry runs, so
// whatever the expiry issues queues behind it.
func (q *expiryQueue) HandleEvent(int32, any) {
	e := q.pop()
	q.advance()
	q.expire(e.r, e.seq)
}

// pop removes the head entry and returns it. A block the head leaves
// goes to the free list; an emptied queue rewinds to its first slot.
func (q *expiryQueue) pop() expiryEnt {
	e := q.head.ents[q.hi]
	q.head.ents[q.hi] = expiryEnt{} // do not pin a removed record
	q.hi++
	switch {
	case q.head == q.tail && q.hi == q.ti:
		q.hi, q.ti = 0, 0
	case q.hi == expiryBlockLen:
		b := q.head
		q.head, q.hi = b.next, 0
		b.next, q.free = q.free, b
	}
	return e
}

// advance drops dead entries from the head and arms the first live one.
func (q *expiryQueue) advance() {
	for !q.empty() {
		e := &q.head.ents[q.hi]
		if !e.r.removed && e.r.inflight.Get(e.seq) {
			q.arm()
			return
		}
		q.pop()
	}
}

// arm schedules the head entry's expiry at its reserved position.
func (q *expiryQueue) arm() {
	e := &q.head.ents[q.hi]
	q.armed = q.eng.ScheduleEventSeq(e.at, e.pos, q, 0, nil)
}
