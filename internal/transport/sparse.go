package transport

import "amrt/internal/slab"

// Sparse maps packet sequence numbers to values for the few sequences
// of a flow that are in an exceptional state at once: core's and SIRD's
// reissue times of the sequences awaiting a retransmission. (pHost's
// token expiries live in its own queue, internal/phost/expiry.go.) It
// is a short list searched linearly: at the handful of entries a flow
// carries that beats a map's hashing, and an empty one costs nothing,
// where a map per flow is several allocations before the first insert.
// Where membership is tested for every packet of a flow, keep a Bitmap
// beside it and consult the Sparse only on a hit.
//
// The entries live in chunks of sparseChunkLen from a SparsePool, which
// every Sparse of one protocol instance shares (SetPool): a chunk goes
// back to the pool's free list when Delete empties it and when the
// record that owns the Sparse ends (Release), so a run holds chunks for
// its peak of live entries, not one per flow that ever lost a packet.
// The zero value is empty, with a pool of its own.
type Sparse[V any] struct {
	top  *sparseChunk[V] // the newest entries; every chunk below is full
	n    int
	pool *SparsePool[V]
}

// sparseChunkLen is the entries per chunk: a flow that loses one packet
// usually loses several. A power of two, so a position within a chunk
// is a mask.
const sparseChunkLen = 8

type sparseEnt[V any] struct {
	seq int32
	v   V
}

type sparseChunk[V any] struct {
	ents [sparseChunkLen]sparseEnt[V]
	next *sparseChunk[V]
}

// SparsePool is the free list of Sparse chunks the records of one
// protocol instance share, carved from a slab when it runs dry. A chunk
// on it has all its entries zero. The zero value is an empty pool; a
// pool must not be shared across goroutines.
type SparsePool[V any] struct {
	chunks slab.Pool[sparseChunk[V]]
}

// sparseLink is the free list's link: the chunk's set link.
func sparseLink[V any](c *sparseChunk[V]) **sparseChunk[V] { return &c.next }

// SetPool makes s take its chunks from p and return them there. Call it
// while s is empty.
func (s *Sparse[V]) SetPool(p *SparsePool[V]) {
	if s.n != 0 {
		panic("transport: Sparse.SetPool on a set holding entries")
	}
	s.pool = p
}

// topLen returns the number of entries in the top chunk.
func (s *Sparse[V]) topLen() int { return (s.n-1)&(sparseChunkLen-1) + 1 }

// find returns seq's entry, or nil.
func (s *Sparse[V]) find(seq int32) *sparseEnt[V] {
	if s.n == 0 {
		return nil
	}
	m := s.topLen()
	for c := s.top; c != nil; c, m = c.next, sparseChunkLen {
		for i := range c.ents[:m] {
			if c.ents[i].seq == seq {
				return &c.ents[i]
			}
		}
	}
	return nil
}

// Len returns the number of entries.
func (s *Sparse[V]) Len() int { return s.n }

// Get returns the value stored for seq and whether there is one.
func (s *Sparse[V]) Get(seq int32) (v V, ok bool) {
	if e := s.find(seq); e != nil {
		return e.v, true
	}
	return v, false
}

// Put stores v for seq, replacing any earlier value.
func (s *Sparse[V]) Put(seq int32, v V) {
	if e := s.find(seq); e != nil {
		e.v = v
		return
	}
	k := s.n & (sparseChunkLen - 1)
	if k == 0 {
		if s.pool == nil {
			s.pool = new(SparsePool[V])
		}
		c := s.pool.chunks.Pop(sparseLink)
		if c == nil {
			c = s.pool.chunks.One()
		}
		c.next, s.top = s.top, c
	}
	s.top.ents[k] = sparseEnt[V]{seq, v}
	s.n++
}

// Delete removes seq's entry; deleting an absent seq is a no-op. The
// newest entry takes its place, and a top chunk left empty goes back to
// the pool.
func (s *Sparse[V]) Delete(seq int32) {
	e := s.find(seq)
	if e == nil {
		return
	}
	m := s.topLen()
	last := &s.top.ents[m-1]
	*e = *last
	*last = sparseEnt[V]{} // do not pin what the value points to
	s.n--
	if m == 1 {
		t := s.top
		s.top = t.next
		s.pool.chunks.Put(t, sparseLink)
	}
}

// Release empties s and returns its chunks to the pool. Call it when the
// record that owns s ends; s stays usable.
func (s *Sparse[V]) Release() {
	for c := s.top; c != nil; {
		next := c.next
		c.ents = [sparseChunkLen]sparseEnt[V]{}
		s.pool.chunks.Put(c, sparseLink)
		c = next
	}
	s.top, s.n = nil, 0
}

// Each calls fn for every entry. The order is unspecified but, unlike a
// map's, a pure function of the Put/Delete history, so a caller that
// schedules events from fn stays deterministic. fn must not modify the
// set.
func (s *Sparse[V]) Each(fn func(seq int32, v V)) {
	if s.n == 0 {
		return
	}
	m := s.topLen()
	for c := s.top; c != nil; c, m = c.next, sparseChunkLen {
		for _, e := range c.ents[:m] {
			fn(e.seq, e.v)
		}
	}
}
