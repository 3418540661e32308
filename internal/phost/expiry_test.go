package phost

import (
	"fmt"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/transport"
)

// TestPendingExpiries guards the expiry queue's two promises: a blind
// window of BDP packets in flight — from two flows, even — holds one
// engine event per instance, not one per packet, and the steady state
// of a flow (one arrival retires the oldest token, one new token is
// issued) allocates nothing.
func TestPendingExpiries(t *testing.T) {
	s, p := newFan(2)
	eng := p.Engine()
	var recs []*rcvFlow
	for i := range 2 {
		f := p.NewFlow(netsim.FlowID(1+i), s.Senders[i], s.Receivers[0], 20_000_000, 0)
		r := &rcvFlow{f: f}
		transport.InitBitmaps(f.NPkts, &r.rcvd, &r.inflight)
		recs = append(recs, r)
	}
	bdp := p.BlindPkts(recs[0].f)
	if bdp < 64 {
		t.Fatalf("blind window %d packets: too small to tell", bdp)
	}
	before := eng.Pending()
	for _, r := range recs {
		for seq := range bdp {
			p.trackPending(r, seq)
		}
	}
	if got := eng.Pending() - before; got != 1 {
		t.Fatalf("%d packets in flight hold %d engine events, want 1", 2*bdp, got)
	}
	for _, r := range recs {
		if r.inflight.Count() != bdp {
			t.Fatalf("inflight %d, want %d", r.inflight.Count(), bdp)
		}
	}
	p.removeFlow(recs[1])

	r, oldest, next := recs[0], int32(0), bdp
	cycle := func() {
		if r.inflight.Clear(oldest) {
			p.expiries.arrived(r, oldest)
		}
		r.rcvd.Set(oldest)
		oldest++
		p.trackPending(r, next)
		next++
		// Time passes, so cancelled events drain and recycle.
		eng.Run(eng.Now() + sim.Microsecond)
	}
	for range 1000 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("steady-state token cycle allocates %v times, want 0", allocs)
	}
	if p.TokensExpired != 0 {
		t.Errorf("%d tokens expired; the cycle retires each before its timeout", p.TokensExpired)
	}
	if r.inflight.Count() != bdp {
		t.Errorf("inflight %d after the cycle, want %d", r.inflight.Count(), bdp)
	}
}

// A FuzzExpiryQueue script is data[0] — timeout, time scale and
// scheduler — followed by 2-byte records {op | slot<<2, arg}.
const (
	expIssue   = iota // issue a token for the slot's sequence arg
	expArrive         // sequence arg of the slot's record arrives
	expRemove         // the slot's record ends; a fresh one replaces it
	expAdvance        // run the engine arg × scale ahead

	expSlots     = 3
	expPkts      = 40
	expMaxTokens = 600
	expMaxScript = 1024
)

var (
	expTimeouts = [8]sim.Time{1, 2, 10, 64, 100, 1000, 4096, 100_000}
	expScales   = [4]sim.Time{1, 8, 64, 1024}
)

// expRec is one slot's receiver record, with the token each of its
// sequences was last issued as and, on the eager side, its timers.
type expRec struct {
	r      *rcvFlow
	id     [expPkts]int
	timers [expPkts]sim.Timer
}

func newExpRec() *expRec {
	x := &expRec{r: &rcvFlow{}}
	transport.InitBitmaps(expPkts, &x.r.rcvd, &x.r.inflight)
	return x
}

type expLog struct {
	at    sim.Time
	seq   uint64
	token int
}

// expSide runs a script on one engine, with eager per-token timers
// (q == nil, the model) or with the expiry queue (the subject).
type expSide struct {
	eng     *sim.Engine
	q       *expiryQueue
	timeout sim.Time
	slots   [expSlots]*expRec
	base    uint64 // tokens draw base+1, base+2, … in issue order
	tokens  int
	log     []expLog
	err     error
}

func newExpSide(kind sim.SchedulerKind, timeout sim.Time, queued bool) *expSide {
	s := &expSide{eng: sim.NewEngineWith(kind), timeout: timeout}
	s.base = s.eng.ReserveSeq()
	for i := range s.slots {
		s.slots[i] = newExpRec()
	}
	if queued {
		s.q = &expiryQueue{eng: s.eng, expire: func(r *rcvFlow, seq int32) {
			for _, x := range s.slots {
				if x.r == r {
					s.expired(x, seq)
					return
				}
			}
			s.fail("expiry of a removed record's sequence %d", seq)
		}}
	}
	return s
}

func (s *expSide) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

func (s *expSide) issue(x *expRec, seq int32) {
	if s.tokens >= expMaxTokens || x.r.rcvd.Get(seq) || x.r.inflight.Get(seq) {
		return
	}
	x.r.inflight.Set(seq)
	x.id[seq] = s.tokens
	s.tokens++
	if s.q != nil {
		s.q.push(x.r, seq, s.timeout)
	} else {
		x.timers[seq] = s.eng.ScheduleEvent(s.timeout, s, seq, x)
	}
}

func (s *expSide) arrive(x *expRec, seq int32) {
	if x.r.inflight.Clear(seq) {
		if s.q != nil {
			s.q.arrived(x.r, seq)
		} else {
			x.timers[seq].Cancel()
		}
	}
	x.r.rcvd.Set(seq)
}

func (s *expSide) remove(slot int) {
	x := s.slots[slot]
	if s.q != nil {
		x.r.removed = true
		s.q.dropped(x.r)
	} else {
		for seq := range int32(expPkts) {
			x.timers[seq].Cancel()
		}
	}
	s.slots[slot] = newExpRec()
}

// HandleEvent is the model's eager expiry.
func (s *expSide) HandleEvent(seq int32, arg any) { s.expired(arg.(*expRec), seq) }

// expired logs the expiry — after checking the engine is dispatching it
// at the sequence number its issue drew — and, for some tokens, issues
// more from inside the handler: the same sequence again, as a re-token
// of the hole does, and the record's next untokened sequence.
func (s *expSide) expired(x *expRec, seq int32) {
	x.r.inflight.Clear(seq)
	id := x.id[seq]
	pos, now := s.base+1+uint64(id), s.eng.Now()
	if !s.eng.Passed(now, pos) || s.eng.Passed(now, pos+1) {
		s.fail("token %d dispatched at %v off its sequence %#x", id, now, pos)
	}
	s.log = append(s.log, expLog{now, pos, id})
	if id%3 == 0 {
		s.issue(x, seq)
	}
	if id%5 == 0 {
		if next := x.r.rcvd.NextClearBoth(&x.r.inflight, 0); next >= 0 {
			s.issue(x, next)
		}
	}
}

// check holds the queue's invariant: a waiting head is live and owns
// the one armed event, at its own deadline.
func (s *expSide) check() {
	q := s.q
	if q == nil {
		return
	}
	if q.empty() {
		if q.armed.Active() {
			s.fail("empty queue holds an armed event")
		}
		return
	}
	e := q.ents.Peek()
	if e.dead() || !e.r.inflight.Get(e.seq) {
		s.fail("head entry (seq %d) is dead", e.seq)
	}
	if !q.armed.Active() || q.armed.At() != e.at {
		s.fail("head entry due at %v is not armed (armed %v at %v)", e.at, q.armed.Active(), q.armed.At())
	}
}

func (s *expSide) step(op, slot int, arg byte, scale sim.Time) {
	x := s.slots[slot]
	seq := int32(arg) % expPkts
	switch op {
	case expIssue:
		s.issue(x, seq)
	case expArrive:
		s.arrive(x, seq)
	case expRemove:
		s.remove(slot)
	case expAdvance:
		s.eng.Run(s.eng.Now() + sim.Time(arg)*scale)
	}
	s.check()
}

// FuzzExpiryQueue runs one script of issue, arrive, remove and advance
// steps on two engines: eager ScheduleEvent-plus-Cancel timers (the
// model) and the expiry queue with its one reserved event (the
// subject). Every expiry must dispatch at the same (at, seq) as the same
// token, and both engines must count the same executed events.
func FuzzExpiryQueue(f *testing.F) {
	rec := func(op, slot int, arg byte) []byte { return []byte{byte(op | slot<<2), arg} }
	script := func(head byte, recs ...[]byte) []byte {
		b := []byte{head}
		for _, r := range recs {
			b = append(b, r...)
		}
		return b
	}
	// A window of tokens, the oldest arrives, the rest expire.
	f.Add(script(3, rec(expIssue, 0, 0), rec(expIssue, 0, 1), rec(expIssue, 0, 2),
		rec(expArrive, 0, 0), rec(expAdvance, 0, 200)))
	// Arrivals retire a later entry, then the head; the dead entries are
	// skipped when the event passes on.
	f.Add(script(4, rec(expIssue, 0, 0), rec(expIssue, 1, 0), rec(expIssue, 0, 1),
		rec(expIssue, 2, 5), rec(expArrive, 0, 1), rec(expArrive, 0, 0),
		rec(expAdvance, 0, 50), rec(expArrive, 1, 0), rec(expAdvance, 0, 255)))
	// Removal of the head's record, and a fresh record in its slot.
	f.Add(script(5, rec(expIssue, 1, 3), rec(expIssue, 1, 4), rec(expIssue, 0, 9),
		rec(expRemove, 1, 0), rec(expIssue, 1, 3), rec(expAdvance, 0, 255),
		rec(expAdvance, 0, 255)))
	// Same-instant expiries across records under the heap scheduler,
	// with re-issues from inside the handler at a one-nanosecond timeout.
	f.Add(script(0x20, rec(expIssue, 0, 0), rec(expIssue, 1, 0), rec(expIssue, 2, 0),
		rec(expAdvance, 0, 1), rec(expIssue, 0, 6), rec(expAdvance, 0, 0),
		rec(expAdvance, 0, 3)))
	// A lost head holds a long tail of dead entries across blocks.
	long := []byte{0x0e}
	long = append(long, rec(expIssue, 0, 0)...)
	for i := range 300 {
		seq := byte(1 + i%(expPkts-1))
		long = append(long, rec(expIssue, 1+i%2, seq)...)
		long = append(long, rec(expArrive, 1+i%2, seq)...)
		if i%40 == 39 {
			long = append(long, rec(expRemove, 1+i%2, 0)...)
		}
	}
	long = append(long, rec(expAdvance, 0, 255)...)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > expMaxScript {
			data = data[:expMaxScript]
		}
		kind := sim.SchedulerWheel
		if data[0]&0x20 != 0 {
			kind = sim.SchedulerHeap
		}
		timeout, scale := expTimeouts[data[0]&7], expScales[data[0]>>3&3]
		model, subject := newExpSide(kind, timeout, false), newExpSide(kind, timeout, true)
		for b := data[1:]; len(b) >= 2; b = b[2:] {
			op, slot := int(b[0]&3), int(b[0]>>2)%expSlots
			model.step(op, slot, b[1], scale)
			subject.step(op, slot, b[1], scale)
		}
		model.eng.RunAll()
		subject.eng.RunAll()
		subject.check()
		for _, s := range []*expSide{model, subject} {
			if s.err != nil {
				t.Fatal(s.err)
			}
		}
		if len(model.log) != len(subject.log) {
			t.Fatalf("%d expiries with eager timers, %d with the queue", len(model.log), len(subject.log))
		}
		for i := range model.log {
			if model.log[i] != subject.log[i] {
				t.Fatalf("expiry %d: eager %+v, queue %+v", i, model.log[i], subject.log[i])
			}
		}
		if model.eng.Executed != subject.eng.Executed {
			t.Fatalf("executed %d with eager timers, %d with the queue", model.eng.Executed, subject.eng.Executed)
		}
		if subject.eng.Pending() != 0 {
			t.Fatalf("%d events pending after the run", subject.eng.Pending())
		}
	})
}
