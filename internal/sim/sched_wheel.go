package sim

import "math/bits"

// wheelSched is a hierarchical timing wheel: the default scheduler.
//
// Virtual time is quantized into 64 ns ticks. Three wheel levels of 256
// slots each cover [now, now+2^24 ticks) ≈ 1.07 s of look-ahead: level 0
// holds one tick per slot, level 1 one level-0 rotation (16.4 µs) per
// slot, level 2 one level-1 rotation (4.2 ms) per slot. Events beyond the
// cursor's current top-level region wait in an overflow min-heap and
// migrate into the wheel when the cursor enters their region (the "heap
// fallback" — datacenter
// workloads virtually never hit it, but correctness never depends on
// that). Per-level occupancy bitmaps let the cursor jump straight to the
// next non-empty bucket, so advancing across idle virtual time is O(1)
// per 64-bit bitmap word rather than O(elapsed ticks).
//
// Determinism contract: dispatch order is exactly ascending (at, seq) —
// byte-identical to heapSched. Buckets are unordered; ordering is
// restored when the cursor reaches a tick: its level-0 bucket is poured
// into 64 "due" chains, one per nanosecond of the tick, each kept in
// ascending seq, and events scheduled for the current tick while it is
// dispatching join their chain directly. Dispatch takes the head of the
// lowest occupied chain. Because level-0 buckets are a single tick wide,
// no coarser bucket can ever mix two events across a time boundary
// without the due chains re-separating them.
//
// Filing into a due chain is O(1) for the two orders events arrive in:
// an event scheduled at the current instant draws the newest seq and is
// appended at the chain's tail, and a bucket pours newest first, so its
// events are prepended at the head. Anything else (a keyed arrival, a
// reserved seq redeemed late, a cascaded bucket's mixed order) walks the
// chain from its head; a chain holds the events of one nanosecond.
//
// A bucket is an intrusive chain: its slot holds the head event and the
// rest hang off event.next, newest first. Placing an event is two pointer
// writes and pouring a bucket walks and unlinks the chain, so the wheel
// itself never allocates, however short-lived the engine; only the
// overflow heap is a slice, and it grows once to its working size.
type wheelSched struct {
	// curTick is the wheel cursor: floor(dispatch position / 64 ns).
	// Invariants: curTick never exceeds the tick of the earliest pending
	// event, and every pending event's tick is >= curTick.
	curTick int64

	// due[i] heads the chain of the events at curTick<<6 + i, linked
	// through event.next in ascending seq; dueTail[i] is its last event
	// and bit i of dueOcc is set iff the chain is non-empty.
	due     [1 << wheelTickShift]*event
	dueTail [1 << wheelTickShift]*event
	dueOcc  uint64

	// levels[l][s] heads the bucket chain for slot s of level l; occ[l]
	// is the per-slot occupancy bitmap of level l.
	levels [wheelLevels][wheelSlots]*event
	occ    [wheelLevels][wheelSlots / 64]uint64

	// overflow is the far-future fallback: a min-heap on (at, seq) of
	// events beyond curTick's top-level region at insert time.
	overflow []*event

	count int
}

const (
	wheelTickShift = 6 // 64 ns per level-0 tick
	wheelBits      = 8 // 256 slots per level
	wheelSlots     = 1 << wheelBits
	wheelMask      = wheelSlots - 1
	wheelLevels    = 3
	// wheelSpanTicks is the total look-ahead of the wheel, in ticks.
	wheelSpanTicks = int64(1) << (wheelBits * wheelLevels)
)

func newWheelSched() *wheelSched { return &wheelSched{} }

func (w *wheelSched) pending() int { return w.count }

func (w *wheelSched) schedule(ev *event, _ Time) {
	w.count++
	w.insert(ev)
}

// insert places ev into a due chain, a wheel bucket, or the overflow heap.
//
// Placement is by region, not distance: an event goes to the lowest
// level whose *current rotation* contains its tick. That keeps every
// occupied slot at or ahead of the cursor's slot within its rotation —
// no bucket ever wraps around behind the cursor — which is what lets
// next() skip empty high-level slots via the occupancy bitmaps without
// ever stranding a lower-level bucket. Events beyond the current
// top-level region (even nearby ones that merely cross its boundary)
// wait in the overflow heap; they migrate when the cursor enters their
// region, and since everything in the wheel precedes the region
// boundary, the split never reorders dispatch.
func (w *wheelSched) insert(ev *event) {
	tick := int64(ev.at) >> wheelTickShift
	cur := w.curTick
	switch {
	case tick <= cur:
		// Current tick (the engine guarantees at >= now, so tick is
		// never truly below the cursor — only equal).
		w.pushDue(ev)
	case tick>>wheelBits == cur>>wheelBits:
		w.place(0, int(tick)&wheelMask, ev)
	case tick>>(2*wheelBits) == cur>>(2*wheelBits):
		w.place(1, int(tick>>wheelBits)&wheelMask, ev)
	case tick>>(3*wheelBits) == cur>>(3*wheelBits):
		w.place(2, int(tick>>(2*wheelBits))&wheelMask, ev)
	default:
		evheapPush(&w.overflow, ev)
	}
}

func (w *wheelSched) place(level, slot int, ev *event) {
	ev.next = w.levels[level][slot]
	w.levels[level][slot] = ev
	w.occ[level][slot>>6] |= 1 << uint(slot&63)
}

// take empties the bucket at (level, s) and returns its chain.
func (w *wheelSched) take(level, s int) *event {
	head := w.levels[level][s]
	w.levels[level][s] = nil
	w.occ[level][s>>6] &^= 1 << uint(s&63)
	return head
}

// nextAt implements scheduler: a lower bound on the earliest pending
// event's time. The due chains and the overflow heap give exact times;
// wheel buckets contribute their slot's start time, which undershoots by
// at most the slot span. Levels need only be consulted until the first
// occupied one, since every event in level l+1 lies beyond level l's
// current rotation, but the overflow heap must always be folded in —
// between runs it may hold events the cursor has since caught up to.
func (w *wheelSched) nextAt() (Time, bool) {
	if w.count == 0 {
		return 0, false
	}
	if w.dueOcc != 0 {
		return w.due[bits.TrailingZeros64(w.dueOcc)].at, true
	}
	bound := Time(0)
	have := false
	slot0 := int(w.curTick) & wheelMask
	slot1 := int(w.curTick>>wheelBits) & wheelMask
	slot2 := int(w.curTick>>(2*wheelBits)) & wheelMask
	if s, ok := w.nextOcc(0, slot0); ok {
		bound = Time((w.curTick - int64(slot0) + int64(s)) << wheelTickShift)
		have = true
	} else if s, ok := w.nextOcc(1, slot1+1); ok {
		t := (w.curTick>>wheelBits - int64(slot1) + int64(s)) << wheelBits
		bound, have = Time(t<<wheelTickShift), true
	} else if s, ok := w.nextOcc(2, slot2+1); ok {
		t := (w.curTick>>(2*wheelBits) - int64(slot2) + int64(s)) << (2 * wheelBits)
		bound, have = Time(t<<wheelTickShift), true
	}
	if len(w.overflow) > 0 && (!have || w.overflow[0].at < bound) {
		bound, have = w.overflow[0].at, true
	}
	if !have {
		// count > 0 but no bucket found: defensive, should not happen.
		bound = Time(w.curTick << wheelTickShift)
	}
	return bound, true
}

// next implements scheduler: pop the earliest event at or before limit,
// advancing the cursor lazily and cascading higher-level buckets as
// their time arrives.
func (w *wheelSched) next(limit Time) *event {
	limitTick := int64(limit) >> wheelTickShift
	for {
		if w.dueOcc != 0 {
			i := bits.TrailingZeros64(w.dueOcc)
			if w.due[i].at > limit {
				return nil
			}
			return w.popDue(i)
		}
		if w.count == 0 {
			return nil
		}
		// Keep the overflow invariant: anything inside the current
		// top-level region must live in the wheel before we pick the
		// next bucket, otherwise a far-future event scheduled early
		// could be dispatched after a later event scheduled recently.
		w.drainOverflow()

		// Level 0: the rest of the current rotation.
		slot0 := int(w.curTick) & wheelMask
		if s, ok := w.nextOcc(0, slot0); ok {
			t := w.curTick - int64(slot0) + int64(s)
			if t > limitTick {
				w.clamp(limitTick)
				return nil
			}
			w.curTick = t
			w.dumpDue(s)
			continue
		}
		// Level 1: the next occupied slot strictly after the current one.
		slot1 := int(w.curTick>>wheelBits) & wheelMask
		if s, ok := w.nextOcc(1, slot1+1); ok {
			t := (w.curTick>>wheelBits - int64(slot1) + int64(s)) << wheelBits
			if t > limitTick {
				w.clamp(limitTick)
				return nil
			}
			w.curTick = t
			w.cascade(1, s)
			continue
		}
		// Level 2.
		slot2 := int(w.curTick>>(2*wheelBits)) & wheelMask
		if s, ok := w.nextOcc(2, slot2+1); ok {
			t := (w.curTick>>(2*wheelBits) - int64(slot2) + int64(s)) << (2 * wheelBits)
			if t > limitTick {
				w.clamp(limitTick)
				return nil
			}
			w.curTick = t
			w.cascade(2, s)
			continue
		}
		// Wheel empty: jump to the overflow's earliest event.
		t := int64(w.overflow[0].at) >> wheelTickShift
		if t > limitTick {
			w.clamp(limitTick)
			return nil
		}
		w.curTick = t
		w.drainOverflow()
	}
}

// popDue removes and returns the head of due chain i, which must be
// occupied.
func (w *wheelSched) popDue(i int) *event {
	ev := w.due[i]
	w.count--
	if w.due[i] = ev.next; ev.next == nil {
		w.dueTail[i] = nil
		w.dueOcc &^= 1 << uint(i)
	} else {
		ev.next = nil
	}
	return ev
}

// clamp moves the cursor up to the run horizon after establishing that
// no event lies at or before it, so that the next Run resumes the scan
// from the horizon instead of rescanning the idle gap. It never moves
// the cursor backwards and — because the skipped region was verified
// empty — never strands an un-cascaded bucket behind the cursor.
func (w *wheelSched) clamp(limitTick int64) {
	if limitTick > w.curTick {
		w.curTick = limitTick
	}
}

// dumpDue pours level-0 slot s (the bucket of tick curTick) into the
// due chains, restoring exact (at, seq) order for dispatch.
func (w *wheelSched) dumpDue(s int) {
	for ev := w.take(0, s); ev != nil; {
		next := ev.next
		ev.next = nil
		w.pushDue(ev)
		ev = next
	}
}

// pushDue files ev, an unlinked event of tick curTick, into the due
// chain of its nanosecond at its seq. Appending after the tail and
// prepending before the head are O(1); only an event that sorts strictly
// inside the chain walks it.
func (w *wheelSched) pushDue(ev *event) {
	i := uint(ev.at) & (1<<wheelTickShift - 1)
	tail := w.dueTail[i]
	switch {
	case tail == nil:
		w.due[i], w.dueTail[i] = ev, ev
		w.dueOcc |= 1 << i
	case ev.seq > tail.seq:
		tail.next = ev
		w.dueTail[i] = ev
	case ev.seq < w.due[i].seq:
		ev.next = w.due[i]
		w.due[i] = ev
	default:
		p := w.due[i]
		for p.next.seq < ev.seq {
			p = p.next
		}
		ev.next, p.next = p.next, ev
	}
}

// cascade redistributes the bucket at (level, s) — whose span the cursor
// has just reached — into the levels below it (or the due chains).
func (w *wheelSched) cascade(level, s int) {
	for ev := w.take(level, s); ev != nil; {
		next := ev.next
		ev.next = nil
		w.insert(ev)
		ev = next
	}
}

// drainOverflow migrates overflow events that now fall within the
// cursor's top-level region (where insert is guaranteed to land them in
// the wheel, never back in overflow). Amortized O(1): a cheap peek
// unless events actually cross the region boundary.
func (w *wheelSched) drainOverflow() {
	for len(w.overflow) > 0 {
		tick := int64(w.overflow[0].at) >> wheelTickShift
		if tick>>(3*wheelBits) != w.curTick>>(3*wheelBits) {
			return
		}
		w.insert(evheapPop(&w.overflow))
	}
}

// nextOcc returns the first occupied slot of level at index >= from,
// scanning the occupancy bitmap word-wise.
func (w *wheelSched) nextOcc(level, from int) (int, bool) {
	if from >= wheelSlots {
		return 0, false
	}
	word := from >> 6
	if v := w.occ[level][word] >> uint(from&63) << uint(from&63); v != 0 {
		return word<<6 + bits.TrailingZeros64(v), true
	}
	for word++; word < wheelSlots/64; word++ {
		if v := w.occ[level][word]; v != 0 {
			return word<<6 + bits.TrailingZeros64(v), true
		}
	}
	return 0, false
}

// evheapPush and evheapPop maintain a binary min-heap of events ordered
// by eventBefore: the wheel's overflow heap and the heap scheduler.
func evheapPush(h *[]*event, ev *event) {
	items := append(*h, ev)
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(items[i], items[parent]) {
			break
		}
		items[i], items[parent] = items[parent], items[i]
		i = parent
	}
	*h = items
}

func evheapPop(h *[]*event) *event {
	items := *h
	ev := items[0]
	n := len(items) - 1
	items[0] = items[n]
	items[n] = nil
	items = items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && eventBefore(items[l], items[least]) {
			least = l
		}
		if r < n && eventBefore(items[r], items[least]) {
			least = r
		}
		if least == i {
			break
		}
		items[i], items[least] = items[least], items[i]
		i = least
	}
	*h = items
	return ev
}
