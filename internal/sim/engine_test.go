package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.RunAll()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("executed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineSimultaneousEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events ran out of order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Schedule(10, func() {
		trace = append(trace, "a")
		e.Schedule(5, func() { trace = append(trace, "c") })
		e.Schedule(0, func() { trace = append(trace, "b") })
	})
	e.RunAll()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(trace) || trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if e.Now() != 15 {
		t.Errorf("final time %v, want 15ns", e.Now())
	}
}

func TestEngineZeroDelayRunsAfterAlreadyQueued(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(0, func() {
		order = append(order, "first")
		e.Schedule(0, func() { order = append(order, "third") })
	})
	e.Schedule(0, func() { order = append(order, "second") })
	e.RunAll()
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineHorizonStopsBeforeLaterEvents(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(100, func() { ran++ })
	end := e.Run(50)
	if ran != 1 {
		t.Errorf("ran %d events before horizon, want 1", ran)
	}
	if end != 50 {
		t.Errorf("Run returned %v, want 50", end)
	}
	if e.Pending() != 1 {
		t.Errorf("pending %d, want 1", e.Pending())
	}
	// Resume past the horizon.
	e.Run(200)
	if ran != 2 {
		t.Errorf("after resume ran %d, want 2", ran)
	}
}

func TestEngineEventAtHorizonRuns(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(50, func() { ran = true })
	e.Run(50)
	if !ran {
		t.Error("event scheduled exactly at horizon did not run")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++; e.Stop() })
	e.Schedule(20, func() { ran++ })
	e.RunAll()
	if ran != 1 {
		t.Errorf("ran %d events, want 1 (Stop should halt)", ran)
	}
	if e.Now() != 10 {
		t.Errorf("stopped at %v, want 10", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.RunAll()
}

func TestEngineScheduleNilFuncPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("scheduling nil func did not panic")
		}
	}()
	e.Schedule(1, nil)
}

// adder is a typed-event handler: it adds op to the int arg points at.
type adder struct{}

func (adder) HandleEvent(op int32, arg any) { *arg.(*int) += int(op) }

// eventForms arms the same effect — *fired grows by one — as a func()
// event and as a typed event, so the timer tests hold both forms to one
// contract.
var eventForms = []struct {
	name     string
	schedule func(e *Engine, delay Time, fired *int) Timer
}{
	{"func", func(e *Engine, delay Time, fired *int) Timer {
		return e.Schedule(delay, func() { *fired++ })
	}},
	{"typed", func(e *Engine, delay Time, fired *int) Timer {
		return e.ScheduleEvent(delay, adder{}, 1, fired)
	}},
}

func TestTimerCancel(t *testing.T) {
	for _, form := range eventForms {
		t.Run(form.name, func(t *testing.T) {
			forEachScheduler(t, func(t *testing.T, e *Engine) {
				fired := 0
				tm := form.schedule(e, 10, &fired)
				if !tm.Active() {
					t.Error("timer should be active before firing")
				}
				if !tm.Cancel() {
					t.Error("first Cancel should report true")
				}
				if tm.ev.h != nil || tm.ev.arg != nil {
					t.Error("Cancel left the handler or its arg reachable from the queued event")
				}
				if tm.Cancel() {
					t.Error("second Cancel should report false")
				}
				e.RunAll()
				if fired != 0 {
					t.Error("cancelled timer fired")
				}
				if tm.Active() {
					t.Error("cancelled timer reports active")
				}
			})
		})
	}
}

// TestTimerAfterFireAndRecycle covers the generation check: a handle to
// a fired event must stay inert when the engine reuses the event struct
// for a new schedule, and the pooled struct must not keep the old
// handler or arg alive.
func TestTimerAfterFireAndRecycle(t *testing.T) {
	for _, form := range eventForms {
		t.Run(form.name, func(t *testing.T) {
			forEachScheduler(t, func(t *testing.T, e *Engine) {
				fired := 0
				old := form.schedule(e, 10, &fired)
				e.RunAll()
				if fired != 1 {
					t.Fatalf("fired %d times, want 1", fired)
				}
				if old.Cancel() || old.Active() {
					t.Error("timer of a fired event should be inert")
				}
				if old.ev.h != nil || old.ev.arg != nil {
					t.Error("recycled event still references its handler or arg")
				}
				fresh := form.schedule(e, 10, &fired)
				if fresh.ev != old.ev {
					t.Fatal("free list did not reuse the event; the generation check is not exercised")
				}
				if old.Cancel() || old.Active() {
					t.Error("stale timer acted on the event's new incarnation")
				}
				if !fresh.Active() {
					t.Error("stale Cancel deactivated the new event")
				}
				e.RunAll()
				if fired != 2 {
					t.Errorf("fired %d times, want 2", fired)
				}
			})
		})
	}
}

func TestTimerAt(t *testing.T) {
	e := NewEngine()
	tm := e.Schedule(42, func() {})
	if tm.At() != 42 {
		t.Errorf("At() = %v, want 42", tm.At())
	}
}

func TestEngineExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.RunAll()
	if e.Executed != 7 {
		t.Errorf("Executed = %d, want 7", e.Executed)
	}
}

// Property: for any set of delays, events execute in nondecreasing time
// order and all events execute.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { times = append(times, e.Now()) })
		}
		e.RunAll()
		if len(times) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
			return false
		}
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if times[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset of timers runs exactly the others.
func TestEngineCancelSubsetProperty(t *testing.T) {
	f := func(delays []uint16, mask uint64) bool {
		e := NewEngine()
		ran := make([]bool, len(delays))
		timers := make([]Timer, len(delays))
		for i, d := range delays {
			i := i
			timers[i] = e.Schedule(Time(d), func() { ran[i] = true })
		}
		for i := range timers {
			if mask&(1<<(uint(i)%64)) != 0 {
				timers[i].Cancel()
			}
		}
		e.RunAll()
		for i := range timers {
			cancelled := mask&(1<<(uint(i)%64)) != 0
			if ran[i] == cancelled {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var times []Time
		var spawn func()
		n := 0
		spawn = func() {
			times = append(times, e.Now())
			n++
			if n < 500 {
				e.Schedule(Time(rng.Intn(1000)), spawn)
				if rng.Intn(2) == 0 {
					e.Schedule(Time(rng.Intn(1000)), spawn)
				}
			}
		}
		e.Schedule(0, spawn)
		e.Run(Forever)
		return times
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
