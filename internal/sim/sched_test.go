package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// schedulerKinds enumerates both implementations for parameterized tests.
var schedulerKinds = []SchedulerKind{SchedulerWheel, SchedulerHeap}

func forEachScheduler(t *testing.T, fn func(t *testing.T, e *Engine)) {
	t.Helper()
	for _, kind := range schedulerKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) { fn(t, NewEngineWith(kind)) })
	}
}

// spawner dispatches typed events for TestSchedulerEquivalence: op is
// the schedule-order identity of the event.
type spawner func(sid int32, typed bool)

func (s spawner) HandleEvent(op int32, _ any) { s(op, true) }

// TestSchedulerEquivalence is the engine-level proof behind the
// timing-wheel migration: a randomized storm of nested schedules and
// cancellations — delays spanning the due chains, every wheel level, the
// top-region boundary, and the overflow heap — must dispatch in exactly
// the same (time, identity) sequence on both schedulers. Half the events
// are func() closures and half typed Handler events, interleaved at
// random, and every event carries the order it was scheduled in: within
// one instant dispatch must follow it exactly, whatever the form.
func TestSchedulerEquivalence(t *testing.T) {
	type step struct {
		at    Time
		sid   int32 // schedule-order identity, i.e. the auto-band seq order
		typed bool
	}
	run := func(kind SchedulerKind, seed int64) []step {
		e := NewEngineWith(kind)
		rng := rand.New(rand.NewSource(seed))
		var trace []step
		var timers []Timer
		var sids []int32 // sids[i] is the identity behind timers[i]
		cancelled := map[int32]bool{}
		var spawn spawner
		schedule := func(d Time) {
			sid := int32(len(timers))
			sids = append(sids, sid)
			if rng.Intn(2) == 0 {
				timers = append(timers, e.Schedule(d, func() { spawn(sid, false) }))
			} else {
				timers = append(timers, e.ScheduleEvent(d, spawn, sid, nil))
			}
		}
		spawn = func(sid int32, typed bool) {
			if cancelled[sid] {
				t.Fatalf("%v: cancelled event %d dispatched", kind, sid)
			}
			trace = append(trace, step{e.Now(), sid, typed})
			if len(trace) > 4000 {
				return
			}
			for i := 0; i < 1+rng.Intn(3); i++ {
				var d Time
				switch rng.Intn(6) {
				case 0:
					d = 0 // current instant, mid-dispatch
				case 1:
					d = Time(rng.Intn(64)) // same or adjacent tick
				case 2:
					d = Time(rng.Intn(1 << 14)) // level 0/1
				case 3:
					d = Time(rng.Intn(1 << 22)) // level 1/2
				case 4:
					d = Time(rng.Intn(1 << 31)) // level 2 and region crossing
				case 5:
					d = Time(rng.Intn(1 << 33)) // deep overflow (> 1.07 s span)
				}
				schedule(d)
			}
			if rng.Intn(3) == 0 {
				i := rng.Intn(len(timers))
				if timers[i].Cancel() {
					cancelled[sids[i]] = true
				}
			}
		}
		schedule(0)
		// Interleave bounded horizons with full drains so the horizon
		// clamp path is exercised too.
		e.Run(Millisecond)
		e.Run(20 * Millisecond)
		e.RunAll()
		return trace
	}
	for seed := int64(1); seed <= 5; seed++ {
		wheel := run(SchedulerWheel, seed)
		heap := run(SchedulerHeap, seed)
		if len(wheel) != len(heap) {
			t.Fatalf("seed %d: wheel dispatched %d events, heap %d", seed, len(wheel), len(heap))
		}
		var nTyped, sameInstant int
		for i := range wheel {
			if wheel[i] != heap[i] {
				t.Fatalf("seed %d: dispatch %d diverges: wheel %+v, heap %+v", seed, i, wheel[i], heap[i])
			}
			if wheel[i].typed {
				nTyped++
			}
			if i == 0 {
				continue
			}
			prev, cur := wheel[i-1], wheel[i]
			if cur.at < prev.at || (cur.at == prev.at && cur.sid <= prev.sid) {
				t.Fatalf("seed %d: dispatch %d out of (at, seq) order: %+v after %+v", seed, i, cur, prev)
			}
			if cur.at == prev.at && cur.typed != prev.typed {
				sameInstant++
			}
		}
		if nTyped == 0 || nTyped == len(wheel) || sameInstant == 0 {
			t.Fatalf("seed %d: %d of %d events typed, %d same-instant neighbours of mixed form: the mix is not exercised",
				seed, nTyped, len(wheel), sameInstant)
		}
	}
}

// TestEngineScheduleAtCurrentInstant covers events scheduled for the
// running instant during dispatch: they must run in this Run, after all
// events already queued for that time, even when the instant sits right
// at a wheel bucket boundary.
func TestEngineScheduleAtCurrentInstant(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		// 1<<20 ns is a multiple of every wheel bucket width, so the
		// instant is the first tick of a freshly cascaded bucket.
		const at = Time(1 << 20)
		var order []string
		e.ScheduleAt(at, func() {
			order = append(order, "a")
			e.ScheduleAt(at, func() { order = append(order, "c") })
			e.Schedule(0, func() { order = append(order, "d") })
		})
		e.ScheduleAt(at, func() { order = append(order, "b") })
		e.RunAll()
		want := []string{"a", "b", "c", "d"}
		if len(order) != len(want) {
			t.Fatalf("ran %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("ran %v, want %v", order, want)
			}
		}
		if e.Now() != at {
			t.Errorf("finished at %v, want %v", e.Now(), at)
		}
	})
}

// TestEngineEqualTimestampFIFOAcrossBuckets schedules events for one
// timestamp from very different distances — far enough out to land in
// the overflow heap and every wheel level, and from the preceding
// instant — and expects pure scheduling-order FIFO at dispatch.
func TestEngineEqualTimestampFIFOAcrossBuckets(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		const at = Time(2 * Second) // > 1.07 s: overflow from time zero
		var order []int
		// 0, 1: scheduled at t=0, 2 s ahead (overflow heap).
		for i := 0; i < 2; i++ {
			i := i
			e.ScheduleAt(at, func() { order = append(order, i) })
		}
		// 2, 3: scheduled ~1 s before (wheel levels), via an intermediate
		// event.
		e.ScheduleAt(at-Second, func() {
			for i := 2; i < 4; i++ {
				i := i
				e.ScheduleAt(at, func() { order = append(order, i) })
			}
		})
		// 4: scheduled one tick before (level 0 / due boundary).
		e.ScheduleAt(at-1, func() {
			e.ScheduleAt(at, func() { order = append(order, 4) })
		})
		e.RunAll()
		if len(order) != 5 {
			t.Fatalf("ran %d events, want 5 (%v)", len(order), order)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("equal-timestamp events out of FIFO order: %v", order)
			}
		}
	})
}

// TestEngineStopDrainAndResume covers Stop with pooled events: stopping
// mid-run must leave the remaining events (and their timers) intact, a
// resumed Run must dispatch them in order, and the recycled events must
// not corrupt timers handed out earlier.
func TestEngineStopDrainAndResume(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		var order []int
		var timers []Timer
		for i := 0; i < 10; i++ {
			i := i
			timers = append(timers, e.Schedule(Time(10*(i+1)), func() {
				order = append(order, i)
				if i == 4 {
					e.Stop()
				}
			}))
		}
		e.RunAll()
		if len(order) != 5 || e.Now() != 50 {
			t.Fatalf("stopped after %v at %v, want 5 events at 50ns", order, e.Now())
		}
		if e.Pending() != 5 {
			t.Fatalf("pending %d after Stop, want 5", e.Pending())
		}
		for i, tm := range timers {
			if got, want := tm.Active(), i > 4; got != want {
				t.Fatalf("timer %d Active() = %v, want %v", i, got, want)
			}
			if tm.At() != Time(10*(i+1)) {
				t.Fatalf("timer %d At() = %v after recycling, want %v", i, tm.At(), Time(10*(i+1)))
			}
		}
		// Cancel one pending timer, then resume: the drain must skip it
		// and dispatch the rest in order.
		if !timers[7].Cancel() {
			t.Fatal("cancelling a pending timer after Stop failed")
		}
		e.RunAll()
		want := []int{0, 1, 2, 3, 4, 5, 6, 8, 9}
		if len(order) != len(want) {
			t.Fatalf("after resume ran %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("after resume ran %v, want %v", order, want)
			}
		}
		if e.Pending() != 0 {
			t.Errorf("pending %d after drain, want 0", e.Pending())
		}
	})
}

// TestEngineHorizonThenNearSchedule is a regression test for the wheel
// cursor clamp: running to a horizon far before the next event must not
// break the ordering of events scheduled right after the horizon.
func TestEngineHorizonThenNearSchedule(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		var order []string
		e.Schedule(Millisecond, func() { order = append(order, "far") })
		e.Run(100) // horizon long before the pending event
		if e.Now() != 100 {
			t.Fatalf("now = %v, want 100ns", e.Now())
		}
		e.Schedule(50, func() { order = append(order, "near") }) // at 150 ns
		e.RunAll()
		if len(order) != 2 || order[0] != "near" || order[1] != "far" {
			t.Fatalf("order = %v, want [near far]", order)
		}
	})
}

// TestEngineFarFutureOrdering is a regression test for the overflow
// fallback: an event parked in the overflow heap early must still
// dispatch before a later event scheduled much closer to its time.
func TestEngineFarFutureOrdering(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		var order []string
		e.ScheduleAt(1200*Millisecond, func() { order = append(order, "early-scheduled") })
		e.ScheduleAt(500*Millisecond, func() {
			// 1.3 s is within the wheel span as seen from 0.5 s.
			e.ScheduleAt(1300*Millisecond, func() { order = append(order, "late-scheduled") })
		})
		e.RunAll()
		if len(order) != 2 || order[0] != "early-scheduled" || order[1] != "late-scheduled" {
			t.Fatalf("order = %v, want [early-scheduled late-scheduled]", order)
		}
	})
}

// orderCheck is a typed handler that counts its dispatches and records
// the first one that does not follow its predecessor in (at, seq).
type orderCheck struct {
	e       *Engine
	n       int
	lastAt  Time
	lastSeq uint64
	err     string
}

func (c *orderCheck) HandleEvent(int32, any) {
	at, seq := c.e.Now(), c.e.curSeq
	if c.n > 0 && c.err == "" && (at < c.lastAt || at == c.lastAt && seq <= c.lastSeq) {
		c.err = fmt.Sprintf("dispatch %d at (%v, %#x) after (%v, %#x)", c.n, at, seq, c.lastAt, c.lastSeq)
	}
	c.n++
	c.lastAt, c.lastSeq = at, seq
}

// TestSameInstantStorm is the guard on filing into the wheel's due
// chains: 200 k events on one instant, filed in each order the engine
// produces — scheduled before Run in ascending seq, scheduled from a
// handler at Now, and poured from a future bucket, which yields them in
// descending seq — dispatch in exact (at, seq) order on both schedulers,
// and the wheel takes well under a second for each. A chain filed by
// walking from its head would take minutes.
func TestSameInstantStorm(t *testing.T) {
	const n = 200_000
	ways := []struct {
		name string
		fill func(e *Engine, c *orderCheck) // schedules the storm's n events, each with handler c
	}{
		{"before Run, ascending", func(e *Engine, c *orderCheck) {
			for i := 0; i < n; i++ {
				e.ScheduleEvent(0, c, 0, nil)
			}
		}},
		{"from a handler, at Now", func(e *Engine, c *orderCheck) {
			e.ScheduleAt(1000, func() {
				for i := 0; i < n; i++ {
					e.ScheduleEvent(0, c, 0, nil)
				}
			})
		}},
		{"poured from a future bucket", func(e *Engine, c *orderCheck) {
			for i := 0; i < n; i++ {
				e.ScheduleEventAt(5000, c, 0, nil)
			}
		}},
	}
	for _, way := range ways {
		for _, kind := range schedulerKinds {
			e := NewEngineWith(kind)
			c := &orderCheck{e: e}
			way.fill(e, c)
			start := time.Now()
			e.RunAll()
			took := time.Since(start)
			if c.err != "" || c.n != n {
				t.Errorf("%s on the %v: %d of %d events dispatched; %s", way.name, kind, c.n, n, c.err)
			}
			if kind == SchedulerWheel && took > time.Second {
				t.Errorf("%s: the wheel took %v for %d same-instant events, want under 1 s", way.name, took, n)
			}
		}
	}
}

// freeChain walks the engine's free chain and returns its events. It
// fails the test on a cycle, which is also what an event pushed twice
// would look like.
func freeChain(t testing.TB, e *Engine) map[*event]bool {
	t.Helper()
	seen := map[*event]bool{}
	for ev := e.events.Top(); ev != nil; ev = ev.next {
		if seen[ev] {
			t.Fatalf("free chain reaches event %p twice", ev)
		}
		seen[ev] = true
	}
	return seen
}

// TestEngineEventPoolReuse checks that the free chain actually recycles:
// a serial schedule/dispatch cycle has one event in flight at a time, so
// it reuses one event throughout and the chain ends holding it alone.
func TestEngineEventPoolReuse(t *testing.T) {
	e := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < 10_000 {
			e.Schedule(100, fn)
		}
	}
	e.Schedule(0, fn)
	e.RunAll()
	if n != 10_000 {
		t.Fatalf("ran %d events, want 10000", n)
	}
	if got := len(freeChain(t, e)); got != 1 {
		t.Errorf("free chain holds %d events after a serial workload, want 1", got)
	}
	if size := unsafe.Sizeof(event{}) * eventChunk; size != 8192 && unsafe.Sizeof(uintptr(0)) == 8 {
		t.Errorf("a chunk is %d bytes, want the 8192-byte size class exactly", size)
	}
}

// nop is a typed handler that does nothing.
type nop struct{}

func (nop) HandleEvent(int32, any) {}

// TestWheelScheduleAllocs is the zero-allocation contract of the timing
// wheel: buckets and due chains are chains through the events
// themselves, so once the free chain and the overflow heap have grown to
// their working size, scheduling and draining events costs nothing — on
// every level and through the overflow heap alike.
func TestWheelScheduleAllocs(t *testing.T) {
	const n = 100_000
	e := NewEngineWith(SchedulerWheel)
	w := e.sched.(*wheelSched)
	schedule := func() {
		// Delays from 1 ns to 2.1 s: every wheel level, and beyond the
		// 1.07 s span into the overflow heap.
		for i := 0; i < n; i++ {
			e.ScheduleEvent(Time(1)<<(i%32)+Time(i), nop{}, 0, nil)
		}
		// The closing event ends each pass a whole number of top-level
		// regions after it began, so all passes see the same geometry.
		e.ScheduleEvent(Time(wheelSpanTicks)<<wheelTickShift*4, nop{}, 0, nil)
	}
	schedule()
	for l := range w.occ {
		if w.occ[l] == [wheelSlots / 64]uint64{} {
			t.Errorf("no event was placed on wheel level %d", l)
		}
	}
	if len(w.overflow) == 0 {
		t.Error("no event was placed in the overflow heap")
	}
	e.RunAll() // the warm-up pass
	allocs := testing.AllocsPerRun(3, func() {
		schedule()
		e.RunAll()
	})
	if allocs != 0 {
		t.Errorf("%v allocations per pass of %d events on a warmed wheel, want 0", allocs, n+1)
	}
	if e.Pending() != 0 || e.Executed != 5*(n+1) {
		t.Errorf("pending %d, executed %d, want 0 and %d", e.Pending(), e.Executed, 5*(n+1))
	}
}
