package transport

import "amrt/internal/netsim"

// Record is the header every receiver record embeds: what its pool keeps
// across the record's lives. A record that ends goes on its table's free
// chain and comes back, zeroed, as the next flow's record; only its
// incarnation, one higher, and its bitmaps' backing array survive.
//
// The incarnation is what a queue entry that can outlive the record
// (a queued recovery request, a token expiry) copies when it is made and
// compares before it acts: a mismatch means the record it named has
// ended, whoever holds the object now.
type Record[R any] struct {
	next  *R       // the free chain, while the record has ended
	words []uint64 // the bitmaps' backing array, kept for the next life
	inc   uint32
}

// Incarnation returns the record's incarnation: how many times it has
// ended before.
func (h *Record[R]) Incarnation() uint32 { return h.inc }

// InitBitmaps is the package's InitBitmaps for bitmaps inside the
// record: longer ones share the backing array the record kept from an
// earlier life when it is long enough (its words are cleared), and
// allocate one otherwise. Bitmaps of ≤ 64 bits stay inline.
func (h *Record[R]) InitBitmaps(n int32, bs ...*Bitmap) { h.words = initBitmaps(n, h.words, bs) }

func (h *Record[R]) record() *Record[R] { return h }

// record is the constraint of a pooled record type: a pointer to a
// struct that embeds Record.
type record[R any] interface {
	*R
	record() *Record[R]
}

// Records is a FlowTable of receiver records with the pool they come
// from: transport.Receiver takes each new record from here. A record
// that End hands back is the next one taken; with none free, records are
// carved from slabs, like the kernel's flows. Stacks that keep a
// finished flow's record (to answer a late RTS or re-ACK) never End
// theirs and only Drop them, so they get the slabs and no reuse. The
// zero value is empty.
type Records[R any, P record[R]] struct {
	FlowTable[R]
	free   *R // ended records, chained through Record.next
	slab   slab[R]
	carved int // records taken from the slab
}

// take returns a record that belongs to no flow: the last one ended,
// zeroed but for its incarnation and bitmap array, or else a fresh one.
// The slab it carves is no longer than the records flows (its kernel's)
// could still want, one per flow; past that, which only a stack that
// rebuilds without End reaches, one record at a time.
func (t *Records[R, P]) take(flows int) *R {
	r := t.free
	if r == nil {
		t.carved++
		return t.slab.nextOf(flows - t.carved + 1)
	}
	h := P(r).record()
	t.free = h.next
	inc, words := h.inc, h.words
	var zero R
	*r = zero
	h.inc, h.words = inc, words
	return r
}

// End forgets id's record and frees it for the next flow, raising its
// incarnation; no-op if id has none. It must be the last thing that
// touches the record: a reference kept past it (a queued entry) must
// check the incarnation it saw against the record's.
func (t *Records[R, P]) End(id netsim.FlowID) {
	r := t.Drop(id)
	if r == nil {
		return
	}
	h := P(r).record()
	h.inc++
	h.next, t.free = t.free, r
}
