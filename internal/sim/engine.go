package sim

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"amrt/internal/slab"
)

// SchedulerKind selects the event-queue implementation behind an Engine.
// Both schedulers implement the exact same contract — events dispatch in
// ascending (at, seq) order — so a simulation produces byte-identical
// results on either; they differ only in speed. The equivalence is
// enforced by TestSchedulerEquivalence and the golden-trace test in
// internal/experiment.
type SchedulerKind int32

const (
	// SchedulerWheel is the default: a hierarchical timing wheel with
	// 64 ns buckets, per-nanosecond chains for the tick being dispatched,
	// and a heap fallback for far-future events. O(1) schedule and
	// near-O(1) dispatch on simulation workloads.
	SchedulerWheel SchedulerKind = iota
	// SchedulerHeap is the original container/heap binary heap:
	// O(log n) schedule and dispatch. Kept as the reference
	// implementation for equivalence tests and A/B benchmarks.
	SchedulerHeap
)

// String returns "wheel" or "heap".
func (k SchedulerKind) String() string {
	if k == SchedulerHeap {
		return "heap"
	}
	return "wheel"
}

// defaultScheduler is what NewEngine uses. Atomic because engines are
// constructed from the experiment package's worker goroutines while a
// test harness may flip the default between sequential runs.
var defaultScheduler atomic.Int32

// DefaultScheduler returns the SchedulerKind NewEngine currently uses.
func DefaultScheduler() SchedulerKind { return SchedulerKind(defaultScheduler.Load()) }

// SetDefaultScheduler changes the scheduler NewEngine uses. It does not
// affect engines that already exist; callers flipping it around a run
// (the golden-trace tests) should restore it afterwards.
func SetDefaultScheduler(k SchedulerKind) { defaultScheduler.Store(int32(k)) }

// scheduler is the event-queue contract shared by the timing wheel and
// the reference heap. Implementations are driven by exactly one Engine
// and are not safe for concurrent use.
type scheduler interface {
	// schedule inserts an event with ev.at >= now.
	schedule(ev *event, now Time)
	// next removes and returns the earliest pending event (by (at, seq))
	// whose time is <= limit, or nil if there is none. It may return
	// cancelled events; the engine drains them.
	next(limit Time) *event
	// pending returns the number of scheduled-but-unexecuted events,
	// including cancelled ones that have not been drained yet.
	pending() int
	// nextAt returns a lower bound on the time of the earliest pending
	// event (exact for the heap, and for the wheel while its current tick
	// holds events; bucket-granular otherwise) and whether any event is
	// pending at all. Cancelled events may
	// contribute to the bound; it is only ever too early, never too
	// late, which is what the sharded runtime's idle skip-ahead needs.
	nextAt() (Time, bool)
}

// Event sequence bands. The engine dispatches same-time events in
// ascending seq order, so the top bits of seq partition each virtual
// instant into four phases with a fixed relative order:
//
//	[0, 1<<62)        keyed arrivals — link deliveries ordered by a
//	                  partition-independent (link, per-link counter) key
//	[1<<62, 1<<63)    keyed signals — cross-shard control records ordered
//	                  by a (src node, dst node, pair counter) key
//	[1<<63, 3<<62)    auto band — ScheduleAt/Schedule FIFO order
//	[3<<62, 2^64)     late band — observers (telemetry sampler, liveness
//	                  watchdog, auditor) that must see the instant's
//	                  settled state
//
// The keyed bands exist for the sharded engine (docs/PARALLELISM.md): a
// key computed from simulation state, rather than from global scheduling
// order, makes the dispatch order of same-time events independent of how
// the network is partitioned. The bands apply identically at one shard,
// which is how shards=1 stays the byte-identical golden reference.
const (
	// SeqSignal is the base key of the signal band; keyed arrivals use
	// raw keys below it.
	SeqSignal uint64 = 1 << 62
	// seqAuto is where the engine's automatic FIFO sequence starts.
	seqAuto uint64 = 1 << 63
	// SeqLate is the base key of the late (observer) band.
	SeqLate uint64 = seqAuto | SeqSignal
	// SubObserver partitions the late band's ScheduleLate sub-key space
	// in two: sub-keys below it are end-of-instant *actions* — the fault
	// layer's administrative events (link flaps, crashes, reboots, salt
	// rotations), ordered among themselves by plan position — and
	// sub-keys at or above it are *observers* (metrics, watchdog, audit
	// ticks) that must see the instant fully settled, including any
	// same-instant fault action. Observers OR their small sub-key into
	// SubObserver (one table in internal/experiment lists them all);
	// actions draw plain counters below it.
	SubObserver uint64 = 1 << 32
)

// Handler receives typed events: the engine calls HandleEvent(op, arg)
// with the op and arg given at schedule time. A long-lived object that
// schedules the same few events over and over (a port's tx-done and
// delivery) implements it once and switches on op, so scheduling
// allocates nothing — unlike a closure, which is a fresh heap object per
// call. arg should be pointer-shaped (a pointer, or nil): boxing any
// other value into the interface allocates.
type Handler interface {
	HandleEvent(op int32, arg any)
}

// Func adapts a plain func() to Handler; Schedule, ScheduleAt,
// ScheduleKeyed and ScheduleLate wrap their callback in it. A func value
// is pointer-shaped, so the conversion to Handler does not allocate and
// closures ride the same event record as typed events.
type Func func()

// HandleEvent implements Handler by calling f.
func (f Func) HandleEvent(int32, any) { f() }

// Engine is a discrete-event simulation engine. Events are Handler calls
// (or closures, through Func) scheduled at virtual times; Run executes
// them in time order, breaking ties by scheduling order (FIFO), which
// makes every run fully deterministic: the dispatch sequence is a pure
// function of the schedule calls, never of the scheduler implementation,
// map iteration, or wall-clock time.
//
// An Engine must be driven from a single goroutine. Executed events are
// recycled on an internal free chain, so steady-state scheduling does not
// allocate; Timer handles stay safe across recycling via a generation
// check.
type Engine struct {
	now   Time
	seq   uint64
	sched scheduler
	// wheel is sched when that is the timing wheel, nil otherwise: the
	// schedule and dispatch paths call it directly rather than through
	// the interface.
	wheel   *wheelSched
	running bool
	stopped bool

	// curSeq is the sequence number of the event being dispatched, so
	// Passed can place "now" inside an instant, not just on the clock.
	// Outside Run it says how far the last instant got: all-ones before
	// the first Run and after one that drained or reached its horizon
	// (everything at or before now has been dispatched), the last
	// dispatched event's seq after one that was stopped.
	curSeq uint64

	// events is where events come from and go back to: after dispatch,
	// or when a cancelled event is drained, an event returns to its free
	// chain through event.next (single-threaded, so it beats sync.Pool
	// here), and a dry chain carves from chunks of eventChunk.
	events slab.Pool[event]

	// Executed counts events dispatched since construction; useful for
	// progress reporting and performance benchmarks. ExecutedLate counts
	// the subset dispatched from the late (observer) band; Executed -
	// ExecutedLate is the partition-independent simulation event count
	// reported by the experiment runner (observer chains replicate per
	// shard, simulation events do not).
	Executed     uint64
	ExecutedLate uint64

	// interrupt, when non-nil, is polled every interruptEvery executed
	// events during Run; returning true stops the run like Stop. Polling
	// happens outside the event stream, so it never perturbs event
	// ordering, timestamps, or Executed — a run whose interrupt never
	// fires is byte-identical to one without an interrupt installed.
	interrupt      func() bool
	interruptEvery uint64
	interruptLeft  uint64
}

// NewEngine returns an empty engine at time zero using the default
// scheduler (see SetDefaultScheduler; the wheel unless overridden).
func NewEngine() *Engine { return NewEngineWith(DefaultScheduler()) }

// NewEngineWith returns an empty engine at time zero using the given
// scheduler implementation.
func NewEngineWith(kind SchedulerKind) *Engine {
	e := &Engine{seq: seqAuto, curSeq: ^uint64(0)}
	e.events.Slab = slab.Sized[event](eventChunk, eventChunk)
	if kind == SchedulerHeap {
		e.sched = newHeapSched()
	} else {
		e.wheel = newWheelSched()
		e.sched = e.wheel
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled-but-unexecuted events,
// including cancelled timers that have not yet been drained.
func (e *Engine) Pending() int { return e.sched.pending() }

// Schedule runs fn after delay. A negative delay panics: events may not
// be scheduled in the past.
func (e *Engine) Schedule(delay Time, fn func()) Timer {
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute time at. Scheduling at the current time
// is allowed and runs fn after all events already scheduled for that
// time.
func (e *Engine) ScheduleAt(at Time, fn func()) Timer {
	return e.ScheduleEventAt(at, funcHandler(fn), 0, nil)
}

// ScheduleEvent is Schedule for a typed event: h.HandleEvent(op, arg)
// runs after delay.
func (e *Engine) ScheduleEvent(delay Time, h Handler, op int32, arg any) Timer {
	return e.ScheduleEventAt(e.now+delay, h, op, arg)
}

// ScheduleEventAt is ScheduleAt for a typed event. It draws the next
// auto-band sequence number, exactly as ScheduleAt does, so typed and
// func() events scheduled for one instant interleave in call order.
func (e *Engine) ScheduleEventAt(at Time, h Handler, op int32, arg any) Timer {
	t := e.scheduleSeq(at, e.seq, h, op, arg)
	e.seq++
	return t
}

// ReserveSeq draws the auto-band sequence number a ScheduleEventAt call
// made now would draw, without scheduling anything. The caller holds a
// place in the dispatch order: it can later put an event there with
// ScheduleEventSeq, or never schedule one and ask Passed whether the
// place has gone by. Either way every other event's sequence number —
// and so the whole dispatch order — is what it would have been had the
// event been scheduled eagerly. It has two users: the port's transmit
// completion, to exist only when a packet is waiting for it, and
// pHost's token expiries, which reserve one position per token and keep
// one event for a whole queue of them (internal/phost/expiry.go).
func (e *Engine) ReserveSeq() uint64 {
	seq := e.seq
	e.seq++
	return seq
}

// ScheduleEventSeq schedules a typed event at (at, seq), where seq came
// from ReserveSeq: it dispatches exactly where an eager ScheduleEventAt
// at the reservation point would have. It panics if that position has
// already passed — the event would dispatch late, which is the one thing
// a reservation must never do.
func (e *Engine) ScheduleEventSeq(at Time, seq uint64, h Handler, op int32, arg any) Timer {
	if seq < seqAuto || seq >= e.seq {
		panic(fmt.Sprintf("sim: seq %#x was not drawn by ReserveSeq", seq))
	}
	if e.Passed(at, seq) {
		panic(fmt.Sprintf("sim: schedule at (%v, %#x), which has already passed", at, seq))
	}
	return e.scheduleSeq(at, seq, h, op, arg)
}

// Passed reports whether an event at position (at, seq) would already
// have been dispatched: at is before now, or it is now and seq sorts at
// or before the event being dispatched. Outside Run the current instant
// counts as over, unless the last Run was stopped — then only what sorted
// at or before the last dispatched event has passed.
func (e *Engine) Passed(at Time, seq uint64) bool {
	return at < e.now || at == e.now && seq <= e.curSeq
}

// ScheduleKeyed runs fn at absolute time at, ordered among same-time
// events by key instead of by scheduling order. key must lie below the
// auto band (< 1<<63): raw arrival keys sort before SeqSignal-based
// signal keys, and both sort before everything ScheduleAt scheduled for
// the same instant. Callers must ensure (at, key) pairs are unique —
// duplicate pairs would leave the dispatch order of the two events up to
// the scheduler implementation.
func (e *Engine) ScheduleKeyed(at Time, key uint64, fn func()) Timer {
	return e.ScheduleEventKeyed(at, key, funcHandler(fn), 0, nil)
}

// ScheduleEventKeyed is ScheduleKeyed for a typed event.
func (e *Engine) ScheduleEventKeyed(at Time, key uint64, h Handler, op int32, arg any) Timer {
	if key >= seqAuto {
		panic(fmt.Sprintf("sim: keyed seq %#x reaches the auto band", key))
	}
	return e.scheduleSeq(at, key, h, op, arg)
}

// ScheduleLate runs fn at absolute time at, after every arrival, signal,
// and auto-band event of that instant — "end of instant" semantics for
// observers that must see settled state. sub orders same-time late
// events among themselves and must stay below 1<<62; (at, sub) pairs
// must be unique per engine.
func (e *Engine) ScheduleLate(at Time, sub uint64, fn func()) Timer {
	return e.scheduleLate(at, sub, funcHandler(fn))
}

// scheduleLate is ScheduleLate for a Handler.
func (e *Engine) scheduleLate(at Time, sub uint64, h Handler) Timer {
	if sub >= SeqSignal {
		panic(fmt.Sprintf("sim: late subkey %#x overflows the late band", sub))
	}
	return e.scheduleSeq(at, SeqLate|sub, h, 0, nil)
}

// Every runs tick in the late band under sub (see ScheduleLate) at first,
// first+interval, first+2·interval, and so on, the last tick at or before
// until; it stops early after a tick that returns false. Tick instants are
// a pure function of (first, interval, until), never of what else is
// pending, so an observer ticking through Every samples the same instants
// at every shard count. first > until schedules nothing; interval <= 0
// panics. It is the one periodic schedule of the module: every sampler,
// auditor and watchdog ticks through it, each under its own sub.
func (e *Engine) Every(first, interval, until Time, sub uint64, tick func() bool) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive tick interval %v", interval))
	}
	if first > until {
		return
	}
	t := &ticker{e: e, at: first, interval: interval, until: until, sub: sub, tick: tick}
	e.scheduleLate(first, sub, t)
}

// ticker is one Every schedule, its own event handler: arming it
// allocates the ticker and nothing else, and a tick allocates nothing.
type ticker struct {
	e                   *Engine
	at, interval, until Time
	sub                 uint64
	tick                func() bool
}

// HandleEvent implements Handler: one tick, then the next one if the
// tick asks for it and it falls within until.
func (t *ticker) HandleEvent(int32, any) {
	if t.tick() && t.at <= t.until-t.interval {
		t.at += t.interval
		t.e.scheduleLate(t.at, t.sub, t)
	}
}

// funcHandler wraps fn for the func()-taking schedule calls. The nil
// check lives here because Func(nil) is a non-nil Handler.
func funcHandler(fn func()) Handler {
	if fn == nil {
		panic("sim: schedule nil func")
	}
	return Func(fn)
}

func (e *Engine) scheduleSeq(at Time, seq uint64, h Handler, op int32, arg any) Timer {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if h == nil {
		panic("sim: schedule nil handler")
	}
	ev := e.events.Pop(eventLink)
	if ev == nil {
		ev = e.events.One()
	}
	ev.at, ev.seq, ev.h, ev.op, ev.arg = at, seq, h, op, arg
	if w := e.wheel; w != nil {
		w.count++
		w.insert(ev)
	} else {
		e.sched.schedule(ev, e.now)
	}
	return Timer{ev: ev, gen: ev.gen, at: at}
}

// NextAt returns a lower bound on the time of the earliest pending
// event and whether any event is pending. The bound is exact for the
// heap scheduler, and for the wheel while the wheel's current 64 ns tick
// still holds events; otherwise the wheel's is bucket-granular (at most
// one wheel-slot span early). It is never later than the true earliest
// event. The
// sharded runtime polls it at synchronization barriers to skip idle
// windows.
func (e *Engine) NextAt() (Time, bool) { return e.sched.nextAt() }

// eventChunk is how many events one chunk of the pool holds. An event
// is 64 bytes, so a chunk is exactly the 8 KB allocator size class: one
// malloc per 128 events, no rounding waste.
const eventChunk = 128

// eventLink is the free chain's link: the event's scheduler link.
func eventLink(ev *event) **event { return &ev.next }

// ReserveEvents readies n events and a chunk beside them in one
// allocation: a caller about to schedule n events that wait together —
// a run registering every flow's start — pays one malloc for them, not
// one per eventChunk, and the events the run keeps pending besides
// still have their chunk.
func (e *Engine) ReserveEvents(n int) { e.events.Reserve(n + eventChunk) }

// recycle invalidates outstanding Timer handles (generation bump),
// releases the handler and its arg, and pushes the event — which must be
// off every scheduler chain — onto the free chain.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.h, ev.arg = nil, nil
	e.events.Put(ev, eventLink)
}

// Run executes events in order until the queue drains, the horizon is
// passed, or Stop is called. It returns the virtual time at which it
// stopped. Events scheduled exactly at the horizon are executed.
func (e *Engine) Run(until Time) Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()

	for !e.stopped {
		// The head of the wheel's lowest due chain is the next event
		// whenever a chain is occupied: take it here, and leave cursor
		// moves and cascades to next.
		var ev *event
		if w := e.wheel; w != nil && w.dueOcc != 0 {
			i := bits.TrailingZeros64(w.dueOcc)
			if w.due[i].at > until {
				break
			}
			ev = w.popDue(i)
		} else if ev = e.sched.next(until); ev == nil {
			break
		}
		if ev.h == nil { // cancelled
			e.recycle(ev)
			continue
		}
		e.now, e.curSeq = ev.at, ev.seq
		e.Executed++
		if ev.seq >= SeqLate {
			e.ExecutedLate++
		}
		h, op, arg := ev.h, ev.op, ev.arg
		e.recycle(ev)
		h.HandleEvent(op, arg)
		if e.interrupt != nil {
			if e.interruptLeft--; e.interruptLeft == 0 {
				e.interruptLeft = e.interruptEvery
				if e.interrupt() {
					e.stopped = true
				}
			}
		}
	}
	if !e.stopped {
		e.curSeq = ^uint64(0)
		if until != Forever {
			e.now = until
		}
	}
	return e.now
}

// RunAll executes events until the queue drains or Stop is called.
func (e *Engine) RunAll() Time { return e.Run(Forever) }

// Stop halts Run after the current event completes. It may only be
// called from within an event callback.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the last Run ended via Stop or an interrupt
// (rather than by draining the queue or reaching the horizon). The
// sharded runtime polls it at window barriers to propagate an abort.
func (e *Engine) Stopped() bool { return e.stopped }

// SetInterrupt installs fn as an out-of-band stop condition: Run polls
// it every `every` executed events (0 means a default of 4096) and stops
// — exactly as if Stop had been called — when it returns true. The poll
// is not an event, so installing an interrupt that never fires leaves
// the run byte-identical to an uninterrupted one; this is how
// context-cancellable callers (amrt.RunContext, sweep campaigns) abort
// long simulations promptly without breaking determinism. A nil fn
// clears the interrupt. SetInterrupt must be called before Run.
func (e *Engine) SetInterrupt(every uint64, fn func() bool) {
	if fn == nil {
		e.interrupt = nil
		return
	}
	if every == 0 {
		every = 4096
	}
	e.interrupt, e.interruptEvery, e.interruptLeft = fn, every, every
}

// Timer is a handle to a scheduled event that can be cancelled. Timers
// remain valid after the event fires or is drained — the underlying
// event is recycled, and the handle detects that through a generation
// check — so callers may keep timers around without pinning memory.
// Timer is a small value: store and copy it directly rather than taking
// its address. The zero Timer is inert — Cancel reports false and
// Active reports false — so an unset timer field needs no nil check.
type Timer struct {
	ev  *event
	gen uint32
	at  Time
}

// Cancel prevents the event from running. Cancelling an already-executed
// or already-cancelled timer is a no-op. Cancel reports whether the
// event had not yet fired.
func (t *Timer) Cancel() bool {
	if !t.Active() {
		return false
	}
	t.ev.h, t.ev.arg = nil, nil // marks it cancelled, and releases both for GC
	return true
}

// At returns the virtual time the timer is (or was) scheduled for.
func (t *Timer) At() Time { return t.at }

// Active reports whether the event is still pending.
func (t *Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.h != nil
}

// event is a scheduled Handler call. Events are pooled: after dispatch
// (or drain of a cancelled event) the engine bumps gen and reuses the
// struct, so nothing outside the engine may retain an *event without
// also holding the generation it was issued at (Timer does).
//
// A pending event has a non-nil h; Cancel clears it, which is the whole
// of the cancelled mark (scheduleSeq rejects a nil handler, so the two
// cannot be confused). That keeps the struct at 64 bytes with the link.
//
// next is the intrusive link of whichever chain holds the event: a wheel
// bucket, one of the wheel's due chains, or the engine's free chain. An
// event is in exactly one place at a time — one wheel bucket, one due
// chain, one (at, seq) heap (the wheel's overflow or the heap
// scheduler's), the free chain, or being dispatched — and next is nil
// everywhere but on a chain.
type event struct {
	at   Time
	seq  uint64
	h    Handler
	arg  any
	next *event
	op   int32
	gen  uint32
}
