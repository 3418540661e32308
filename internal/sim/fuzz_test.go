package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// sliceSched is the naive reference scheduler of FuzzSchedulerEquivalence:
// one slice kept sorted by (at, seq), insertion by shifting the tail up.
type sliceSched struct{ items []*event }

func (s *sliceSched) schedule(ev *event, _ Time) {
	i := sort.Search(len(s.items), func(i int) bool { return eventBefore(ev, s.items[i]) })
	s.items = append(s.items, nil)
	copy(s.items[i+1:], s.items[i:])
	s.items[i] = ev
}

func (s *sliceSched) next(limit Time) *event {
	if len(s.items) == 0 || s.items[0].at > limit {
		return nil
	}
	ev := s.items[0]
	s.items = s.items[1:]
	return ev
}

func (s *sliceSched) pending() int { return len(s.items) }

func (s *sliceSched) nextAt() (Time, bool) {
	if len(s.items) == 0 {
		return 0, false
	}
	return s.items[0].at, true
}

// A fuzz script is a sequence of 4-byte records {op | class<<3, magLo,
// magHi, flags}. The top-level script runs the records in order; every
// dispatched event reads one more record from a second cursor over the
// same bytes (wrapping) and, if its nest flag is set, applies it from
// inside the handler. Two more flags make the "reserve now, schedule
// later" step: a typed record flagged reserve draws its sequence number
// with ReserveSeq and holds (at, seq) back instead of scheduling, and any
// record flagged redeem first turns the oldest held reservation into an
// event with ScheduleEventSeq — wherever the script has got to by then,
// top level or handler — or drops it if its position has passed.
const (
	fuzzTyped     = iota // ScheduleEventAt
	fuzzFunc             // ScheduleAt
	fuzzArrival          // ScheduleEventKeyed, arrival band
	fuzzSignal           // ScheduleKeyed, signal band
	fuzzLate             // ScheduleLate
	fuzzCancel           // Timer.Cancel on timers[mag % len]
	fuzzRun              // Run(now + delay); from a handler, a typed schedule
	fuzzTypedMore        // a second typed schedule, to weight the mix

	fuzzNest    = 1 // flags bit: apply this record when a handler reads it
	fuzzReserve = 2 // flags bit: a typed record reserves instead of scheduling
	fuzzRedeem  = 4 // flags bit: schedule the oldest held reservation first

	// fuzzMaxEvents bounds a script's events (a nested record may spawn
	// a chain as long as the run lasts).
	fuzzMaxEvents = 512
	// fuzzMaxScript bounds the bytes of a script that are read.
	fuzzMaxScript = 1024
)

func fuzzRec(op, class int, mag uint16, flags byte) []byte {
	return []byte{byte(op | class<<3), byte(mag), byte(mag >> 8), flags}
}

// fuzzDelay maps a class and a 16-bit magnitude to a delay; the classes
// cover the current tick, each wheel level and its boundary with the
// next, exact slot edges, and the overflow heap.
func fuzzDelay(class byte, mag uint16) Time {
	m := Time(mag)
	switch class {
	case 0:
		return 0 // current instant
	case 1:
		return m % 64 // same or adjacent tick
	case 2:
		return m % (1 << 14) // level 0/1
	case 3:
		return m << 6 // level 1/2, up to 4.2 ms
	case 4:
		return m << 15 // level 2 and region crossing, up to 2.1 s
	case 5:
		return m << 17 // deep overflow, up to 8.6 s
	case 6:
		return m << 14 // exact level-1 slot edges
	default:
		return Time(wheelSpanTicks)<<wheelTickShift + m // just past the wheel span
	}
}

type fuzzStep struct {
	at  Time
	seq uint64
}

// fuzzScript is one execution of a script on one engine.
type fuzzScript struct {
	t      *testing.T
	name   string
	e      *Engine
	data   []byte
	nested int // cursor of the records handlers read

	// held queues the reservations not yet redeemed.
	held []fuzzStep

	// Indexed by schedule order, which is also the typed events' op.
	timers    []Timer
	seqs      []uint64
	cancelled []bool
	trace     []fuzzStep
}

func (r *fuzzScript) HandleEvent(op int32, _ any) { r.fire(int(op)) }

func (r *fuzzScript) fire(id int) {
	if r.cancelled[id] {
		r.t.Fatalf("%s: cancelled event %d dispatched", r.name, id)
	}
	r.trace = append(r.trace, fuzzStep{r.e.Now(), r.seqs[id]})
	if w, ok := r.e.sched.(*wheelSched); ok {
		r.auditWheel(w)
	}
	rec := r.data[r.nested : r.nested+4]
	if r.nested += 4; r.nested+4 > len(r.data) {
		r.nested = 0
	}
	if rec[3]&fuzzNest != 0 {
		r.apply(rec, false)
	}
}

func (r *fuzzScript) apply(rec []byte, top bool) {
	op, class := rec[0]&7, rec[0]>>3&7
	mag := uint16(rec[1]) | uint16(rec[2])<<8
	at := r.e.Now() + fuzzDelay(class, mag)
	if rec[3]&fuzzRedeem != 0 && len(r.held) > 0 && len(r.timers) < fuzzMaxEvents {
		res := r.held[0]
		r.held = r.held[1:]
		if !r.e.Passed(res.at, res.seq) {
			r.track(r.e.ScheduleEventSeq(res.at, res.seq, r, int32(len(r.timers)), nil))
		}
	}
	switch {
	case op == fuzzCancel:
		if len(r.timers) > 0 {
			i := int(mag) % len(r.timers)
			if r.timers[i].Cancel() {
				r.cancelled[i] = true
			}
		}
		return
	case op == fuzzRun && top:
		r.e.Run(at)
		return
	case len(r.timers) >= fuzzMaxEvents:
		return
	case (op == fuzzTyped || op == fuzzTypedMore) && rec[3]&fuzzReserve != 0:
		r.held = append(r.held, fuzzStep{at, r.e.ReserveSeq()})
		return
	}
	id := len(r.timers)
	fn := func() { r.fire(id) }
	var tm Timer
	switch op {
	case fuzzFunc:
		tm = r.e.ScheduleAt(at, fn)
	case fuzzArrival:
		tm = r.e.ScheduleEventKeyed(at, uint64(id), r, int32(id), nil)
	case fuzzSignal:
		tm = r.e.ScheduleKeyed(at, SeqSignal|uint64(id), fn)
	case fuzzLate:
		tm = r.e.ScheduleLate(at, uint64(id), fn)
	default:
		tm = r.e.ScheduleEventAt(at, r, int32(id), nil)
	}
	r.track(tm)
}

// track files a scheduled event under the next schedule-order id.
func (r *fuzzScript) track(tm Timer) {
	r.timers = append(r.timers, tm)
	r.seqs = append(r.seqs, tm.ev.seq)
	r.cancelled = append(r.cancelled, false)
}

// auditWheel checks the wheel's structure, between two top-level records
// and from inside every handler: the bucket chains, the due chains and
// the overflow heap hold exactly the pending events (one held twice, or a
// chain that loops, makes them hold more), heap entries carry no stale
// link, and the occupancy bits match the bucket and due-chain heads. Due
// chain i holds only events at curTick<<6 + i, strictly ascending in seq,
// and ends at dueTail[i].
func (r *fuzzScript) auditWheel(w *wheelSched) {
	held := 0
	for l := range w.levels {
		for s, head := range w.levels[l] {
			if occ := w.occ[l][s>>6]>>uint(s&63)&1 != 0; occ != (head != nil) {
				r.t.Fatalf("wheel: level %d slot %d occupancy bit %v, chain present %v", l, s, occ, head != nil)
			}
			for ev := head; ev != nil && held <= w.count; ev = ev.next {
				held++
			}
		}
	}
	for i, head := range w.due {
		if occ := w.dueOcc>>uint(i)&1 != 0; occ != (head != nil) {
			r.t.Fatalf("wheel: due chain %d occupancy bit %v, chain present %v", i, occ, head != nil)
		}
		at := Time(w.curTick<<wheelTickShift + int64(i))
		var last *event
		for ev := head; ev != nil && held <= w.count; ev = ev.next {
			if ev.at != at {
				r.t.Fatalf("wheel: due chain %d holds an event at %v, want %v", i, ev.at, at)
			}
			if last != nil && ev.seq <= last.seq {
				r.t.Fatalf("wheel: due chain %d has seq %#x after %#x", i, ev.seq, last.seq)
			}
			last = ev
			held++
		}
		if w.dueTail[i] != last {
			r.t.Fatalf("wheel: due chain %d ends at %p, its tail is %p", i, last, w.dueTail[i])
		}
	}
	for _, ev := range w.overflow {
		if ev.next != nil {
			r.t.Fatalf("wheel: event seq %#x sits in the overflow heap with a stale link", ev.seq)
		}
	}
	held += len(w.overflow)
	if held != w.count {
		r.t.Fatalf("wheel: buckets, due chains and overflow hold %d events, %d are pending", held, w.count)
	}
}

// run executes the script, drains the engine, and checks that no event
// was lost or duplicated on the way.
func (r *fuzzScript) run() {
	w, isWheel := r.e.sched.(*wheelSched)
	for i := 0; i+4 <= len(r.data); i += 4 {
		r.apply(r.data[i:i+4], true)
		if isWheel {
			r.auditWheel(w)
		}
	}
	r.e.RunAll()
	if n := r.e.Pending(); n != 0 {
		r.t.Fatalf("%s: %d events pending after RunAll", r.name, n)
	}
	for i := 1; i < len(r.trace); i++ {
		if r.trace[i].at < r.trace[i-1].at {
			r.t.Fatalf("%s: dispatch %d went back in time: %+v after %+v", r.name, i, r.trace[i], r.trace[i-1])
		}
	}
	free := freeChain(r.t, r.e)
	handed := map[*event]bool{}
	for id, tm := range r.timers {
		if !free[tm.ev] {
			r.t.Fatalf("%s: event %d is not back on the free chain", r.name, id)
		}
		handed[tm.ev] = true
	}
	if len(free) != len(handed) {
		r.t.Fatalf("%s: free chain holds %d events, the script was handed %d", r.name, len(free), len(handed))
	}
	if isWheel {
		r.auditWheel(w) // nothing pending: every bucket, due chain and the overflow are empty
	}
}

// FuzzSchedulerEquivalence drives the timing wheel, the heap and a naive
// sorted-slice reference with one script of schedules (every band, both
// event forms), reservations redeemed later (an older sequence number
// entering a bucket, a cascading level or the current tick's due chains),
// cancellations, schedules from inside handlers and Run calls with
// mid-script horizons, at delays that cross every wheel-level boundary. All three must dispatch the same (at, seq) sequence, never
// dispatch a cancelled event, and end with nothing pending and every
// event back on the free chain exactly once — an event stranded in an
// unlinked bucket, or reachable from two chains because cascade forgot
// to clear its link, fails here.
func FuzzSchedulerEquivalence(f *testing.F) {
	join := func(recs ...[]byte) (out []byte) {
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	// TestEngineFarFutureOrdering: an event parked in overflow at 1.2 s,
	// then one at 0.5 s whose handler re-reads the first record.
	f.Add(join(fuzzRec(fuzzTyped, 5, 9155, fuzzNest), fuzzRec(fuzzFunc, 4, 15258, 0)))
	// TestEngineHorizonThenNearSchedule: far event, short horizon, near event.
	f.Add(join(fuzzRec(fuzzTyped, 3, 15625, 0), fuzzRec(fuzzRun, 2, 100, 0), fuzzRec(fuzzFunc, 1, 50, 0)))
	// TestEngineEqualTimestampFIFOAcrossBuckets, TestTimerCancel: one
	// instant reached from overflow and from level 0, and a cancel.
	f.Add(join(fuzzRec(fuzzTyped, 7, 0, 0), fuzzRec(fuzzLate, 7, 0, 0), fuzzRec(fuzzArrival, 7, 0, 0),
		fuzzRec(fuzzRun, 7, 0, 0), fuzzRec(fuzzCancel, 0, 1, 0), fuzzRec(fuzzSignal, 0, 0, fuzzNest)))
	// TestReservedSeqDispatchesWhereEagerWould: two reservations in one
	// tick; the first is redeemed at top level into a future bucket, the
	// second from the handler of an event in that same tick — the older
	// sequence number joins the due chain the tick is dispatching from.
	f.Add(join(fuzzRec(fuzzTyped, 2, 1320, fuzzReserve), fuzzRec(fuzzTypedMore, 2, 1321, fuzzReserve),
		fuzzRec(fuzzFunc, 2, 1283, fuzzNest|fuzzRedeem), fuzzRec(fuzzTyped, 2, 1290, 0)))
	// The same across levels: reservations in level 1, level 2 and the
	// overflow, redeemed after Run calls have moved the cursor.
	f.Add(join(fuzzRec(fuzzTyped, 3, 2000, fuzzReserve), fuzzRec(fuzzTyped, 4, 300, fuzzReserve),
		fuzzRec(fuzzTyped, 5, 9000, fuzzReserve), fuzzRec(fuzzRun, 3, 1000, fuzzRedeem),
		fuzzRec(fuzzRun, 4, 100, fuzzRedeem), fuzzRec(fuzzFunc, 4, 200, fuzzNest|fuzzRedeem)))
	// TestSchedulerEquivalence: random storms, mostly nesting.
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		storm := make([]byte, 256)
		rng.Read(storm)
		f.Add(storm)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		if len(data) > fuzzMaxScript {
			data = data[:fuzzMaxScript]
		}
		scripts := []*fuzzScript{
			{name: "wheel", e: NewEngineWith(SchedulerWheel)},
			{name: "heap", e: NewEngineWith(SchedulerHeap)},
			{name: "slice", e: &Engine{seq: seqAuto, curSeq: ^uint64(0), sched: &sliceSched{}}},
		}
		for _, r := range scripts {
			r.t, r.data = t, data
			r.run()
		}
		ref := scripts[2].trace
		for _, r := range scripts[:2] {
			if len(r.trace) != len(ref) {
				t.Fatalf("%s dispatched %d events, the reference %d", r.name, len(r.trace), len(ref))
			}
			for i := range ref {
				if r.trace[i] != ref[i] {
					t.Fatalf("dispatch %d diverges: %s %+v, reference %+v", i, r.name, r.trace[i], ref[i])
				}
			}
		}
	})
}
