package phost

import (
	"amrt/internal/sim"
	"amrt/internal/transport"
)

// expiryEnt is one token (or blind packet) awaiting its arrival: the
// record, its incarnation and the sequence it was issued for, and the
// dispatch position (at, pos) its expiry holds — where an eagerly
// scheduled expiry event would have dispatched. inc fits the padding
// after seq.
type expiryEnt struct {
	r   *rcvFlow
	at  sim.Time
	pos uint64
	seq int32
	inc uint32
}

// dead reports whether e's record has ended: removed, or ended and
// reused by another flow (or by a rebuild of the same one), which the
// incarnation tells.
func (e *expiryEnt) dead() bool { return e.inc != e.r.Incarnation() || e.r.removed }

// expiryQueue holds every token expiry of one Protocol instance (one
// engine shard) in issue order, with one engine event for them all.
//
// The timeout is one constant per instance, so issue order is deadline
// order, and each entry's sequence number — drawn with ReserveSeq at
// issue, exactly the one an eager ScheduleEvent would have drawn — keeps
// its place among same-instant events. Only the first live entry holds
// an event, at its reserved (at, pos); the rest wait in the queue. An
// entry is live while its record has not been removed (in this life:
// the entries of a record's ended lives carry an older incarnation) and
// its inflight bit is set. One bit is enough to tell: an arrived
// sequence is never issued again, and an expired one only after its
// entry was popped, so at most one entry per (record, sequence) is
// waiting and live. Every expiry therefore still dispatches at its own
// (at, seq), a cancelled event is drained without counting in Executed,
// and no other event's sequence moves: the run's bytes and event count
// are an eager timer's.
//
// Entries live in a transport.FIFO, whose blocks are recycled through
// the queue's own pool: a live head that waits out the timeout for a
// lost token holds every entry issued since behind it, dead or not, and
// a slice would regrow past them.
type expiryQueue struct {
	eng    *sim.Engine
	expire func(r *rcvFlow, seq int32)

	ents  transport.FIFO[expiryEnt]
	armed sim.Timer
}

func (q *expiryQueue) empty() bool { return q.ents.Len() == 0 }

// push enters an expiry timeout from now for r's sequence seq, which the
// caller has just marked inflight.
func (q *expiryQueue) push(r *rcvFlow, seq int32, timeout sim.Time) {
	wasEmpty := q.empty()
	q.ents.Push(expiryEnt{r: r, at: q.eng.Now() + timeout, pos: q.eng.ReserveSeq(), seq: seq, inc: r.Incarnation()})
	if wasEmpty {
		q.arm()
	}
}

// arrived is called when r's sequence seq left inflight by arriving. If
// its entry held the event, the event goes to the next live entry.
func (q *expiryQueue) arrived(r *rcvFlow, seq int32) {
	if !q.empty() {
		if e := q.ents.Peek(); e.r == r && e.seq == seq {
			q.pass()
		}
	}
}

// dropped is called when record r was removed: its entries are dead.
func (q *expiryQueue) dropped(r *rcvFlow) {
	if !q.empty() {
		if e := q.ents.Peek(); e.r == r && e.inc == r.Incarnation() {
			q.pass()
		}
	}
}

// pass cancels the dead head entry's event and arms the next live one.
func (q *expiryQueue) pass() {
	q.armed.Cancel()
	q.ents.Pop()
	q.advance()
}

// HandleEvent implements sim.Handler: the head entry's expiry is due.
// The event passes to the next live entry before the expiry runs, so
// whatever the expiry issues queues behind it.
func (q *expiryQueue) HandleEvent(int32, any) {
	e := q.ents.Pop()
	q.advance()
	q.expire(e.r, e.seq)
}

// advance drops dead entries from the head and arms the first live one.
func (q *expiryQueue) advance() {
	for !q.empty() {
		if e := q.ents.Peek(); !e.dead() && e.r.inflight.Get(e.seq) {
			q.arm()
			return
		}
		q.ents.Pop()
	}
}

// arm schedules the head entry's expiry at its reserved position.
func (q *expiryQueue) arm() {
	e := q.ents.Peek()
	q.armed = q.eng.ScheduleEventSeq(e.at, e.pos, q, 0, nil)
}
