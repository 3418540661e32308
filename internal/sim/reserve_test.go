package sim

import (
	"slices"
	"testing"
)

// labels records the order events dispatch in, by name.
type labels []string

func (l *labels) note(name string) func() { return func() { *l = append(*l, name) } }

// named is a typed event that appends its name (the arg) to a trace.
type named struct{ trace *labels }

func (n named) HandleEvent(_ int32, arg any) { *n.trace = append(*n.trace, arg.(string)) }

// TestReservedSeqDispatchesWhereEagerWould: an event scheduled late at a
// reserved sequence number dispatches exactly where an eager
// ScheduleEventAt at the reservation point would have put it — between
// the same-instant events scheduled just before and just after that
// point — whether it enters the current tick's due chains from a
// handler, a future level-0 bucket, a level that still has to cascade,
// or the overflow heap, and on both schedulers. Two cases add a
// neighbour: an event queued at a later nanosecond of the target's tick,
// which must still dispatch after the target's instant, and a keyed
// event the redeeming handler files at Now, below its own seq, which
// must dispatch right after that handler.
func TestReservedSeqDispatchesWhereEagerWould(t *testing.T) {
	const tick = Time(1) << wheelTickShift
	cases := []struct {
		name   string
		redeem Time // when the reservation is turned into an event; -1: at top level, before Run
		target Time
		later  Time // if non-zero, an event "later" queued at this time before everything else
		// keyedNow makes the redeeming handler also file a keyed event at
		// Now, "keyed-now", whose key sorts below the handler's own seq.
		keyedNow bool
	}{
		{name: "same instant, from a handler", redeem: 20*tick + 40, target: 20*tick + 40},
		{name: "current tick, from a handler", redeem: 20*tick + 3, target: 20*tick + 40},
		{name: "current tick, an earlier nanosecond than a queued event", redeem: 20*tick + 3, target: 20*tick + 10, later: 20*tick + 40},
		{name: "same instant, a keyed event at Now below the dispatching seq", redeem: 20*tick + 40, target: 20*tick + 40, keyedNow: true},
		{name: "future level-0 bucket, from a handler", redeem: 100, target: 5000},
		{name: "future level-0 bucket, before the run", redeem: -1, target: 500},
		{name: "level 1, cascades", redeem: -1, target: 100 * Microsecond},
		{name: "level 1, from a handler", redeem: 70 * Microsecond, target: 100 * Microsecond},
		{name: "level 2, cascades twice", redeem: -1, target: 10 * Millisecond},
		{name: "overflow", redeem: -1, target: 2 * Second},
		{name: "overflow, from a handler", redeem: Second, target: 2 * Second},
	}
	for _, c := range cases {
		run := func(kind SchedulerKind, eager bool) labels {
			e := NewEngineWith(kind)
			var trace labels
			h := named{&trace}
			var seq uint64
			redeem := func() {
				if !eager {
					e.ScheduleEventSeq(c.target, seq, h, 0, "X")
				}
			}
			if c.later != 0 {
				e.ScheduleAt(c.later, trace.note("later"))
			}
			if c.redeem >= 0 {
				e.ScheduleAt(c.redeem, func() {
					trace.note("redeem")()
					if c.keyedNow {
						e.ScheduleKeyed(e.Now(), 3, trace.note("keyed-now"))
					}
					redeem()
				})
			}
			e.ScheduleAt(c.target, trace.note("before"))
			if eager {
				e.ScheduleEventAt(c.target, h, 0, "X")
			} else {
				seq = e.ReserveSeq()
			}
			e.ScheduleAt(c.target, trace.note("after"))
			e.ScheduleKeyed(c.target, 7, trace.note("keyed"))
			e.ScheduleLate(c.target, 7, trace.note("late"))
			if c.redeem < 0 {
				redeem()
			}
			e.RunAll()
			return trace
		}
		want := labels{"keyed", "before", "X", "after", "late"}
		if c.redeem >= 0 {
			if c.redeem == c.target {
				want = slices.Insert(want, 1, "redeem")
			} else {
				want = slices.Insert(want, 0, "redeem")
			}
			if c.keyedNow {
				want = slices.Insert(want, slices.Index(want, "redeem")+1, "keyed-now")
			}
		}
		if c.later != 0 {
			want = append(want, "later")
		}
		for _, kind := range schedulerKinds {
			eager, lazy := run(kind, true), run(kind, false)
			if !slices.Equal(lazy, eager) || !slices.Equal(eager, want) {
				t.Errorf("%s on the %v: reserved %v, eager %v, want %v", c.name, kind, lazy, eager, want)
			}
		}
	}
}

// TestReserveSeqKeepsLaterDraws: a reservation nobody redeems still
// takes its place in the sequence, so every later event keeps the
// sequence number it would have had.
func TestReserveSeqKeepsLaterDraws(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		a := e.ScheduleAt(10, func() {})
		s := e.ReserveSeq()
		b := e.ScheduleAt(10, func() {})
		if a.ev.seq+1 != s || s+1 != b.ev.seq {
			t.Errorf("draws %#x, %#x, %#x are not consecutive", a.ev.seq, s, b.ev.seq)
		}
		e.RunAll()
		if e.Executed != 2 {
			t.Errorf("%d events ran, want 2", e.Executed)
		}
	})
}

func TestScheduleEventSeqPanics(t *testing.T) {
	mustPanic := func(t *testing.T, what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		fn()
	}
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		var n nop
		early := e.ReserveSeq()
		var inside func()
		e.ScheduleAt(100, func() { inside() })
		late := e.ReserveSeq()

		mustPanic(t, "a sequence number nobody reserved", func() { e.ScheduleEventSeq(100, late+1, n, 0, nil) })
		mustPanic(t, "a keyed sequence number", func() { e.ScheduleEventSeq(100, 5, n, 0, nil) })
		inside = func() {
			// This handler sorts after `early` and before `late`.
			mustPanic(t, "a position earlier in this instant", func() { e.ScheduleEventSeq(100, early, n, 0, nil) })
			e.ScheduleEventSeq(100, late, n, 0, nil)
		}
		e.Run(200)
		if e.Executed != 2 {
			t.Errorf("%d events ran, want the handler and the one it scheduled", e.Executed)
		}
		mustPanic(t, "a time before now", func() { e.ScheduleEventSeq(150, late, n, 0, nil) })
		mustPanic(t, "now, after the run reached it", func() { e.ScheduleEventSeq(200, late, n, 0, nil) })
		e.ScheduleEventSeq(201, late, n, 0, nil)
	})
}

// TestPassed walks a position (100, s) through an engine's life: ahead
// of the clock, inside its own instant on either side of it, behind the
// clock, and across a Stop in the middle of the instant.
func TestPassed(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		check := func(when string, at Time, seq uint64, want bool) {
			t.Helper()
			if got := e.Passed(at, seq); got != want {
				t.Errorf("%s: Passed(%d, %#x) = %v, want %v", when, at, seq, got, want)
			}
		}
		var s uint64
		e.ScheduleAt(100, func() {
			check("in the instant, before the position", 100, s, false)
			check("in the instant, an earlier time", 99, s, true)
			e.Stop()
		})
		s = e.ReserveSeq()
		e.ScheduleAt(100, func() {
			check("in the instant, after the position", 100, s, true)
			check("in the instant, a later time", 101, s, false)
		})
		check("before the first run, a future time", 100, s, false)

		if e.Run(Forever); !e.Stopped() || e.Now() != 100 {
			t.Fatalf("run ended at %v, stopped %v; want a stop at 100", e.Now(), e.Stopped())
		}
		check("stopped before the position", 100, s, false)
		check("stopped, the stopping event itself", 100, s-1, true)
		check("stopped, an earlier time", 99, s, true)

		e.Run(Forever)
		check("drained: the whole instant is over", 100, s, true)
		check("drained, a later time", 101, s, false)

		e.Run(300)
		check("at the horizon", 300, s, true)
		check("past the horizon", 301, s, false)
	})
}
