package sim

import (
	"slices"
	"testing"
)

// everyTicks arms one Every ticker on a fresh engine of the given kind
// beside a few unrelated auto-band events, runs the engine dry and
// returns the instants the ticker ticked at. The stopAfter-th tick
// returns false (0: every tick returns true).
func everyTicks(kind SchedulerKind, first, interval, until Time, stopAfter int) []Time {
	e := NewEngineWith(kind)
	for _, d := range []Time{3, 50, 777} {
		e.Schedule(d, func() {})
	}
	var at []Time
	e.Every(first, interval, until, 1, func() bool {
		at = append(at, e.Now())
		return len(at) != stopAfter
	})
	e.RunAll()
	return at
}

// TestEvery is the one periodic schedule's contract: ticks at first,
// first+interval, … up to the last at or before until — a count that is a
// pure function of (first, interval, until), whatever else is pending —
// an early stop after a tick returns false, nothing at all when first is
// past until, and late-band placement: an auto-band event of the tick's
// instant runs first even when it was scheduled after the ticker.
func TestEvery(t *testing.T) {
	for _, kind := range schedulerKinds {
		t.Run(kind.String(), func(t *testing.T) {
			if got, want := everyTicks(kind, 10, 100, 1000, 0), []Time{10, 110, 210, 310, 410, 510, 610, 710, 810, 910}; !slices.Equal(got, want) {
				t.Errorf("Every(10, 100, 1000) ticked at %v, want %v", got, want)
			}
			if got := everyTicks(kind, 0, 100, 1000, 0); len(got) != 11 || got[10] != 1000 {
				t.Errorf("Every(0, 100, 1000) ticked at %v, want 0..1000 with until itself included", got)
			}
			for _, c := range [][3]Time{{0, 1, 0}, {0, 7, 100}, {5, 64, 4096}, {100, 3, 1000}, {0, 1000, 999}, {4095, 4096, 1 << 20}} {
				first, interval, until := c[0], c[1], c[2]
				want := int((until-first)/interval) + 1
				if got := everyTicks(kind, first, interval, until, 0); len(got) != want {
					t.Errorf("Every(%v, %v, %v) ticked %d times, want %d", first, interval, until, len(got), want)
				}
			}
			if got := everyTicks(kind, 0, 100, Forever, 3); !slices.Equal(got, []Time{0, 100, 200}) {
				t.Errorf("a ticker stopped by its third tick ticked at %v", got)
			}
			e := NewEngineWith(kind)
			if e.Every(21, 10, 20, 1, func() bool { return true }); e.Pending() != 0 {
				t.Errorf("Every with first past until armed %d events", e.Pending())
			}

			e = NewEngineWith(kind)
			var order []string
			e.Every(100, 100, 200, 1, func() bool {
				order = append(order, "tick")
				if e.Now() == 100 {
					e.ScheduleAt(200, func() { order = append(order, "auto") })
				}
				return true
			})
			e.ScheduleAt(100, func() { order = append(order, "auto") })
			e.RunAll()
			if want := []string{"auto", "tick", "auto", "tick"}; !slices.Equal(order, want) {
				t.Errorf("same-instant order %v, want %v", order, want)
			}
		})
	}

	defer func() {
		if recover() == nil {
			t.Error("Every with a zero interval did not panic")
		}
	}()
	NewEngine().Every(0, 0, 100, 1, func() bool { return true })
}

// TestEveryAllocs: once the first tick has carved the pool's first chunk,
// a ticker allocates nothing — each tick reuses the event the previous
// one released.
func TestEveryAllocs(t *testing.T) {
	forEachScheduler(t, func(t *testing.T, e *Engine) {
		const interval = 100
		n := 0
		e.Every(0, interval, Forever, 1, func() bool { n++; return true })
		e.Run(10 * interval)
		allocs := testing.AllocsPerRun(5, func() { e.Run(e.Now() + 1000*interval) })
		if allocs != 0 {
			t.Errorf("%v allocations per 1000 ticks, want 0", allocs)
		}
		if want := 11 + 6*1000; n != want {
			t.Errorf("ticked %d times, want %d", n, want)
		}
	})
}
