package transport

import "amrt/internal/netsim"

// Record is the header every pooled record embeds: what its table keeps
// across the record's lives. A record that ends goes on its table's free
// chain and comes back, zeroed, as the next flow's record; only its
// incarnation, one higher, survives. Its bitmaps' backing array goes
// back to the instance's WordPool when it ends.
//
// The incarnation is what a queue entry that can outlive the record
// (a queued recovery request, a token expiry) copies when it is made and
// compares before it acts: a mismatch means the record it named has
// ended, whoever holds the object now.
type Record[R any] struct {
	next  *R       // the free chain, while the record has ended
	words []uint64 // the bitmaps' backing array, from the pool; nil when none
	inc   uint32
}

// Incarnation returns the record's incarnation: how many times it has
// ended before.
func (h *Record[R]) Incarnation() uint32 { return h.inc }

func (h *Record[R]) record() *Record[R] { return h }

// record is the constraint of a pooled record type: a pointer to a
// struct that embeds Record.
type record[R any] interface {
	*R
	record() *Record[R]
}

// Records is a FlowTable of pooled records — a stack's receiver records
// (see Receiver), or sender-side per-flow state — with the pool they
// come from. A record that End hands back is the next one taken; with
// none free, records are carved from slabs, like the kernel's flows.
// Stacks that keep a finished flow's record (to answer a late RTS or
// re-ACK) never End theirs and only Drop them, so they get the slabs and
// no reuse; they hand the record's bitmaps back when the flow completes
// (ReleaseBitmaps). The zero value is empty.
type Records[R any, P record[R]] struct {
	FlowTable[R]
	free   *R // ended records, chained through Record.next
	slab   slab[R]
	carved int       // records taken from the slab
	words  *WordPool // the kernel's, bound by New
}

// New stores a record for flow id of k, which must have none, and
// returns it for the caller to fill in: the last one ended, zeroed but
// for its incarnation, or else a fresh one. The first call sizes the
// table like k's flow index, which covers the run's flow IDs, and binds
// the table to k's WordPool.
func (t *Records[R, P]) New(k *Kernel, id netsim.FlowID) *R {
	if t.words == nil {
		t.words = &k.words
	}
	t.recs = grown(t.recs, len(k.flows.recs))
	r := t.take(k.flows.Len())
	t.Put(id, r)
	return r
}

// take returns a record that belongs to no flow: the last one ended,
// zeroed but for its incarnation, or else a fresh one. The slab it
// carves is no longer than the records flows (its kernel's) could still
// want, one per flow; past that, which only a stack that rebuilds
// without End reaches, one record at a time.
func (t *Records[R, P]) take(flows int) *R {
	r := t.free
	if r == nil {
		t.carved++
		return t.slab.nextOf(flows - t.carved + 1)
	}
	h := P(r).record()
	t.free = h.next
	inc := h.inc
	var zero R
	*r = zero
	h.inc = inc
	return r
}

// InitBitmaps makes each of bs, bitmaps inside r (a record of t), an
// empty bitmap of n bits. Bitmaps of ≤ 64 bits keep their word inline;
// longer ones share one array from the instance's WordPool, which goes
// back when the record ends or releases them.
func (t *Records[R, P]) InitBitmaps(r *R, n int32, bs ...*Bitmap) {
	h := P(r).record()
	t.putWords(h)
	if need := bitmapWords(n, len(bs)); need > 0 {
		h.words = t.words.get(need)
	}
	initBitmaps(n, h.words, bs)
}

// ReleaseBitmaps hands r's bitmap array back to the pool once its flow
// is complete, for a stack that keeps the record: bs, the bitmaps
// InitBitmaps made, from then on read as full ones (a Set reports false,
// no bit is clear). Only a stack whose every later read of them wants
// that answer may release them.
func (t *Records[R, P]) ReleaseBitmaps(r *R, bs ...*Bitmap) {
	t.putWords(P(r).record())
	for _, b := range bs {
		b.release()
	}
}

// End forgets id's record and frees it, and its bitmap array, for the
// next flow, raising its incarnation; no-op if id has none. It must be
// the last thing that touches the record: a reference kept past it (a
// queued entry) must check the incarnation it saw against the record's.
func (t *Records[R, P]) End(id netsim.FlowID) {
	r := t.Drop(id)
	if r == nil {
		return
	}
	h := P(r).record()
	t.putWords(h)
	h.inc++
	h.next, t.free = t.free, r
}

// putWords hands h's array, if any, back to the pool.
func (t *Records[R, P]) putWords(h *Record[R]) {
	if h.words != nil {
		t.words.put(h.words)
		h.words = nil
	}
}
