package transport

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// poolRec is a receiver record for the pool tests: two bitmaps that
// share the record's array, and fields a life leaves dirty.
type poolRec struct {
	Record[poolRec]
	id   netsim.FlowID
	a, b Bitmap
	x    int64
}

// poolFlows is the flow count the pool tests' tables carve for, and
// their ID space.
const poolFlows = 16

// poolSizes are the bitmap lengths a life asks for: inline, one word
// past inline, and arrays of 3 and 11 words, so a later life finds the
// kept array too short or long enough.
var poolSizes = []int32{1, 64, 65, 130, 700}

// poolModel is one table's expected state.
type poolModel struct {
	live map[netsim.FlowID]*poolRec
	seen map[*poolRec]uint32 // every record the table handed out: its incarnation
	peak int
}

func newPoolModel() *poolModel {
	return &poolModel{live: map[netsim.FlowID]*poolRec{}, seen: map[*poolRec]uint32{}}
}

// build is Receiver's store of a new record for id, filled with bitmaps
// of n bits, checked against the model: the record is the last one
// ended, or else one no table has handed out; it comes zeroed but for
// its incarnation; its bitmaps start clear, on an array from the pool
// both tables share that is long enough and whose words they use are
// cleared, or inline.
func (m *poolModel) build(t *Records[poolRec, *poolRec], other *poolModel, id netsim.FlowID, n int32) error {
	if t.Get(id) != nil {
		return nil
	}
	want := t.pool.Top()
	r := t.take()
	inc, reused := m.seen[r]
	switch {
	case want != nil && r != want:
		return fmt.Errorf("took %p, not the last record ended, %p", r, want)
	case want == nil && (reused || other.seen[r] != 0):
		return fmt.Errorf("carved %p, a record already handed out", r)
	case r.inc != inc:
		return fmt.Errorf("record %p came back at incarnation %d, ended at %d", r, r.inc, inc)
	}
	body := *r
	body.Record = Record[poolRec]{}
	if r.next != nil || r.words != nil || !reflect.ValueOf(body).IsZero() {
		return fmt.Errorf("record %p came back dirty: %+v", r, body)
	}
	t.InitBitmaps(r, n, &r.a, &r.b)
	if n > 64 {
		w := int(n+63) / 64
		if len(r.words) < 2*w {
			return fmt.Errorf("%d-bit bitmaps on an array of %d words, want at least %d", n, len(r.words), 2*w)
		}
		for i, x := range r.words[:2*w] {
			if x != 0 {
				return fmt.Errorf("%d-bit bitmaps: word %d of the array is %#x", n, i, x)
			}
		}
	} else if r.words != nil {
		return fmt.Errorf("%d-bit bitmaps hold an array of %d words", n, len(r.words))
	}
	for _, b := range []*Bitmap{&r.a, &r.b} {
		if b.Len() != n || b.Count() != 0 || b.NextClear(0) != 0 {
			return fmt.Errorf("fresh %d-bit bitmap: Len %d, Count %d, first clear %d", n, b.Len(), b.Count(), b.NextClear(0))
		}
	}
	r.id, r.x = id, int64(id)+1
	t.Put(id, r)
	m.seen[r] = r.inc
	m.live[id] = r
	m.peak = max(m.peak, len(m.live))
	return nil
}

// checkArrays holds the pool the tables share to its word: no array is
// both free and a live record's, or two live records', and no live or
// ended record holds one but a live record.
func checkArrays(pool *WordPool, models []*poolModel) error {
	owner := map[*uint64]string{}
	claim := func(w []uint64, who string) error {
		if prev, ok := owner[&w[0]]; ok {
			return fmt.Errorf("an array of %d words is held by %s and %s", len(w), prev, who)
		}
		owner[&w[0]] = who
		return nil
	}
	for i, w := range pool.free {
		if i > 0 && len(w) < len(pool.free[i-1]) {
			return fmt.Errorf("free arrays out of order: %d words after %d", len(w), len(pool.free[i-1]))
		}
		if err := claim(w, "the free list"); err != nil {
			return err
		}
	}
	for k, m := range models {
		for r := range m.seen {
			switch {
			case m.live[r.id] != r && r.words != nil:
				return fmt.Errorf("ended record %p still holds an array", r)
			case r.words != nil:
				if err := claim(r.words, fmt.Sprintf("table %d's flow %d", k, r.id)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// end is End checked against the model: the record's incarnation goes
// up by one and it is the next one taken.
func (m *poolModel) end(t *Records[poolRec, *poolRec], id netsim.FlowID) error {
	r := m.live[id]
	t.End(id)
	if r == nil {
		return nil
	}
	delete(m.live, id)
	if r.inc != m.seen[r]+1 {
		return fmt.Errorf("End took record %p from incarnation %d to %d", r, m.seen[r], r.inc)
	}
	m.seen[r] = r.inc
	if t.pool.Top() != r {
		return fmt.Errorf("the ended record %p is not the next one free", r)
	}
	return nil
}

// check holds the table to the model after a step: the same records
// stored; every record handed out either stored or free, never both and
// never in the other table; no more records handed out than the peak
// live count.
func (m *poolModel) check(t *Records[poolRec, *poolRec], other *poolModel) error {
	if t.Len() != len(m.live) {
		return fmt.Errorf("Len %d, model %d", t.Len(), len(m.live))
	}
	for id := netsim.FlowID(-1); id <= poolFlows+1; id++ {
		if got := t.Get(id); got != m.live[id] {
			return fmt.Errorf("Get(%d) = %p, model %p", id, got, m.live[id])
		}
	}
	stored := map[*poolRec]bool{}
	for _, r := range m.live {
		stored[r] = true
	}
	free := map[*poolRec]bool{}
	for r := t.pool.Top(); r != nil; r = r.next {
		switch _, ok := m.seen[r]; {
		case free[r]:
			return fmt.Errorf("record %p is on the free chain twice", r)
		case stored[r]:
			return fmt.Errorf("record %p is both stored and free", r)
		case !ok:
			return fmt.Errorf("free record %p was never handed out", r)
		}
		free[r] = true
	}
	for r := range m.seen {
		if _, ok := other.seen[r]; ok {
			return fmt.Errorf("record %p belongs to both tables", r)
		}
	}
	if len(stored)+len(free) != len(m.seen) {
		return fmt.Errorf("%d records handed out, %d stored and %d free", len(m.seen), len(stored), len(free))
	}
	if len(m.seen) > m.peak {
		return fmt.Errorf("%d records handed out for a peak of %d live", len(m.seen), m.peak)
	}
	return nil
}

// fuzzPoolMaxScript caps a script at 500 steps.
const fuzzPoolMaxScript = 2 * 500

// FuzzReceiverPool runs scripts of build, end, lookup and scribble steps
// over two record tables that share only a word pool, against map
// models. A step is two bytes: the low two bits of the first pick the
// operation, bit 2 the table and the rest the flow ID (0..15); the
// second picks the bitmap size of a build, or the bits a scribble sets.
// After every step both tables pass the model's check and the arrays
// checkArrays'.
func FuzzReceiverPool(f *testing.F) {
	const build, end, lookup, scribble = 0, 1, 2, 3
	rec := func(op, table int, id netsim.FlowID, arg byte) []byte {
		return []byte{byte(op | table<<2 | int(id)<<3), arg}
	}
	script := func(recs ...[]byte) []byte {
		var b []byte
		for _, r := range recs {
			b = append(b, r...)
		}
		return b
	}
	// A long life, dirtied, ends; a short one and a long one reuse it.
	f.Add(script(rec(build, 0, 1, 4), rec(scribble, 0, 1, 0xff), rec(end, 0, 1, 0),
		rec(build, 0, 2, 2), rec(scribble, 0, 2, 7), rec(end, 0, 2, 0), rec(build, 0, 3, 3),
		rec(lookup, 0, 3, 0)))
	// Both tables fill past a slab, drain, and refill.
	var fill []byte
	for id := netsim.FlowID(0); id < poolFlows; id++ {
		fill = append(fill, rec(build, int(id)&1, id, byte(id))...)
	}
	for id := netsim.FlowID(0); id < poolFlows; id++ {
		fill = append(fill, rec(end, int(id)&1, id, 0)...)
	}
	f.Add(append(fill, fill...))
	// Mixed sizes across the tables: a long array ended in one table is
	// the best fit for a shorter life in the other.
	f.Add(script(rec(build, 0, 1, 4), rec(build, 1, 2, 3), rec(scribble, 0, 1, 0x3f),
		rec(end, 0, 1, 0), rec(build, 1, 3, 2), rec(scribble, 1, 3, 9), rec(end, 1, 2, 0),
		rec(end, 1, 3, 0), rec(build, 0, 4, 4), rec(build, 0, 5, 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzPoolMaxScript {
			data = data[:fuzzPoolMaxScript]
		}
		var pool WordPool
		var tables [2]Records[poolRec, *poolRec]
		tables[0].words, tables[1].words = &pool, &pool
		models := [2]*poolModel{newPoolModel(), newPoolModel()}
		for step, b := 0, data; len(b) >= 2; step, b = step+1, b[2:] {
			k, id := int(b[0]>>2)&1, netsim.FlowID(b[0]>>3)%poolFlows
			tb, m, other := &tables[k], models[k], models[1-k]
			var err error
			switch b[0] & 3 {
			case build:
				err = m.build(tb, other, id, poolSizes[int(b[1])%len(poolSizes)])
			case end:
				err = m.end(tb, id)
			case lookup:
				if got := tb.Get(id); got != m.live[id] {
					err = fmt.Errorf("Get(%d) = %p, model %p", id, got, m.live[id])
				}
			case scribble:
				if r := m.live[id]; r != nil {
					r.a.Set(int32(b[1]) % r.a.Len())
					r.b.Set(r.b.Len() - 1 - int32(b[1])%r.b.Len())
					r.x += int64(b[1])
				}
			}
			if err == nil {
				err = m.check(tb, other)
			}
			if err == nil {
				err = checkArrays(&pool, models[:])
			}
			if err != nil {
				t.Fatalf("step %d (table %d, flow %d): %v", step, k, id, err)
			}
		}
	})
}

// TestRecordsCarveForTheFlows: a table carves no more records than its
// kernel has flows — a run with three flows gets three, not the 2 + 4
// of two chunks — and reuses an ended record before it carves.
func TestRecordsCarveForTheFlows(t *testing.T) {
	n, a, b := newLifecycleNet()
	k := NewKernel(n, Config{RTT: testRTT})
	for id := netsim.FlowID(1); id <= 3; id++ {
		k.NewFlow(id, a, b, 1000, 0)
	}
	var tb Records[poolRec, *poolRec]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := netsim.FlowID(1); id <= 3; id++ {
		tb.New(&k, id)
	}
	runtime.ReadMemStats(&after)
	// Three records and the index (4 pointers, far less than a record)
	// cost less than four records: a spare slot would cost at least that.
	if got, most := after.TotalAlloc-before.TotalAlloc, 4*uint64(unsafe.Sizeof(poolRec{})); got >= most {
		t.Errorf("3 flows: %d bytes for their records, want under the %d of 4: no spare slot", got, most)
	}
	r := tb.Get(2)
	tb.End(2)
	if got := tb.take(); got != r {
		t.Errorf("after an End: took %p, want the ended %p", got, r)
	}
}

// TestRecordInitBitmapsAllocs: a record's bitmaps allocate their array
// once; the next life that asks for no more words — the same record or
// another of the table — takes it back from the pool, cleared, and a
// longer one gets an array of exactly its length.
func TestRecordInitBitmapsAllocs(t *testing.T) {
	tb := Records[poolRec, *poolRec]{words: new(WordPool)}
	r := tb.take()
	tb.Put(1, r)
	tb.InitBitmaps(r, 1000, &r.a, &r.b)
	r.a.Set(999)
	tb.End(1)
	got := testing.AllocsPerRun(100, func() {
		r = tb.take()
		tb.Put(1, r)
		tb.InitBitmaps(r, 700, &r.a, &r.b)
		r.a.Set(699)
		tb.End(1)
	})
	if got != 0 {
		t.Errorf("a shorter life: %.1f allocs, want 0", got)
	}
	r = tb.take()
	tb.Put(1, r)
	tb.InitBitmaps(r, 700, &r.a, &r.b)
	if r.a.Count() != 0 || r.a.Get(699) || r.a.Len() != 700 || len(r.words) != 2*16 {
		t.Errorf("reused array not cleared: Count %d, an array of %d words", r.a.Count(), len(r.words))
	}
	tb.InitBitmaps(r, 2000, &r.a, &r.b)
	if len(r.words) != 2*32 || r.a.Count() != 0 || r.b.Len() != 2000 {
		t.Errorf("a longer life: an array of %d words, want 64", len(r.words))
	}
}

// TestGrantRing holds the ring to its earlier form, eight (at, granted,
// valid) slots scanned in slot order, so the newest note no later than
// the cutoff is found with the same tie-break (the lowest slot), and 0
// before any note qualifies.
func TestGrantRing(t *testing.T) {
	type note struct {
		at      sim.Time
		granted int32
		valid   bool
	}
	var g GrantRing
	var slots [8]note
	for i := 0; i < 30; i++ {
		for _, cutoff := range []sim.Time{-1, 0, 5, sim.Time(i) * 3, sim.Time(i)*5 + 2, 1 << 40} {
			want, wantAt := int32(0), sim.Time(-1)
			for _, n := range slots {
				if n.valid && n.at <= cutoff && n.at > wantAt {
					want, wantAt = n.granted, n.at
				}
			}
			if got := g.Before(cutoff); got != want {
				t.Fatalf("after %d notes: Before(%d) = %d, want %d", i, cutoff, got, want)
			}
		}
		// Times repeat and go back now and then, so ties span the wrap.
		n := note{at: sim.Time(i*5 - i%4*7), granted: int32(i + 1), valid: true}
		g.Note(n.at, n.granted)
		slots[i%len(slots)] = n
	}
}
