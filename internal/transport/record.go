package transport

import (
	"amrt/internal/netsim"
	"amrt/internal/slab"
)

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
// none free, records are carved from the pool's slab, like the kernel's
// flows. Stacks that keep a finished flow's record (to answer a late RTS
// or re-ACK) never End theirs and only Drop them, so they get the slab
// and no reuse; they hand the record's bitmaps back when the flow
// completes (ReleaseBitmaps). The zero value is empty.
type Records[R any, P record[R]] struct {
	FlowTable[R]
	pool  slab.Pool[R] // ended records, chained through Record.next
	words *WordPool    // the kernel's, bound by New
}

// New stores a record for flow id of k, which must have none, and
// returns it for the caller to fill in: the last one ended, zeroed but
// for its incarnation, or else a fresh one. The first call sizes the
// table like k's flow index, which covers the run's flow IDs, binds the
// table to k's WordPool, and bounds the records it carves by k's flows,
// one each: a run with three flows carves three, not 2 + 4.
func (t *Records[R, P]) New(k *Kernel, id netsim.FlowID) *R {
	if t.words == nil {
		t.words = &k.words
		t.pool.Bound(k.flows.Len())
	}
	t.recs = grown(t.recs, len(k.flows.recs))
	r := t.take()
	t.Put(id, r)
	return r
}

// take returns a record that belongs to no flow: the last one ended,
// zeroed but for its incarnation, or else a fresh one.
func (t *Records[R, P]) take() *R {
	r := t.pool.Pop(recordLink[R, P])
	if r == nil {
		return t.pool.One()
	}
	h := P(r).record()
	inc := h.inc
	var zero R
	*r = zero
	h.inc = inc
	return r
}

// recordLink is the pool's link: the header's free chain.
func recordLink[R any, P record[R]](r *R) **R { return &P(r).record().next }

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
	t.pool.Put(r, recordLink[R, P])
}

// putWords hands h's array, if any, back to the pool.
func (t *Records[R, P]) putWords(h *Record[R]) {
	if h.words != nil {
		t.words.put(h.words)
		h.words = nil
	}
}
