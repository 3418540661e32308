// Package slab is the one way a simulation's per-run objects are
// allocated: events, packets, nodes, ports, queues, markers, flow and
// receiver records, recovery blocks and per-host state are carved from
// a Slab, and the ones a run recycles come back through a Pool's free
// chain. A chunk costs one allocation however many values it holds, so
// a run's allocations follow its chunks, not its objects.
package slab

// Slab hands out zeroed values of T carved from chunks it allocates.
// Carved values never move (a chunk too short for a request is left
// where it is and a new one started) and are never handed back: they
// live as long as whatever owns the slab.
//
// Chunk lengths follow one rule. The values Reserve announced come from
// one chunk of exactly their number; past them, each chunk is twice the
// last one, but no shorter than the slab's minimum, no longer than its
// maximum or than Bound allows, and never shorter than the span asked
// for. The zero value doubles from 2 to 64; Sized sets other bounds.
type Slab[T any] struct {
	free     []T   // the unused tail of the current chunk
	left     int32 // values Reserve announced and not yet taken
	most     int32 // values Bound allows still to be taken; 0: no bound
	last     int32 // the length of the last chunk made, at most max
	min, max int16 // chunk lengths past the reservation; zero: 2 and 64
}

// Sized returns an empty slab whose chunks past a reservation double
// from min values to max (at most 1<<14).
func Sized[T any](min, max int) Slab[T] { return Slab[T]{min: int16(min), max: int16(max)} }

// Reserve announces n values beyond those the slab holds or was already
// announced: once those are taken, the next chunk holds exactly the
// announced values, so an owner that knows its counts up front carves
// them from one array with no slot to spare.
func (s *Slab[T]) Reserve(n int) { s.left = int32(max(int(s.left), len(s.free)) + n) }

// Bound says that at most n more values will be taken, for an owner
// that knows its count only as a ceiling (one record per flow at most),
// so no chunk outgrows it. Past the bound, chunks double as if there
// were none.
func (s *Slab[T]) Bound(n int) { s.most = int32(n) }

// Take returns k contiguous zeroed values. The span's capacity is its
// length, so appending to it copies rather than runs into a neighbour.
func (s *Slab[T]) Take(k int) []T {
	if len(s.free) < k {
		s.grow(k)
	}
	span := s.free[:k:k]
	s.free = s.free[k:]
	s.left, s.most = max(s.left-int32(k), 0), max(s.most-int32(k), 0)
	return span
}

// One returns a single zeroed value.
func (s *Slab[T]) One() *T { return &s.Take(1)[0] }

// grow starts the chunk a span of k values comes from.
func (s *Slab[T]) grow(k int) {
	lo, hi := int32(s.min), int32(s.max)
	if hi == 0 {
		lo, hi = 2, 64
	}
	n := s.left
	if int(n) < k {
		n = min(max(2*s.last, lo), hi)
		if s.most > 0 {
			n = min(n, s.most)
		}
		n = max(n, int32(k))
	}
	s.last = min(n, hi)
	s.free = make([]T, n)
}

// Pool is a Slab whose values come back. Put pushes a value onto a free
// chain threaded through a link field of the value itself, so recycling
// costs no allocation and no bookkeeping beside the values; Pop takes
// the value put last, and the owner carves with One only when the chain
// is empty. link returns the address of a value's link field, which Pop
// leaves nil; the rest of the value is as it was put, so an owner that
// wants it zeroed clears it on the way in or out. The zero value is
// empty.
type Pool[T any] struct {
	Slab[T]
	head *T
}

// Pop takes the value put last off the chain, nil when it is empty.
// (Carving here too would make Pop too costly to inline, and events and
// packets pass through it once each.)
func (p *Pool[T]) Pop(link func(*T) **T) *T {
	v := p.head
	if v != nil {
		next := link(v)
		p.head, *next = *next, nil
	}
	return v
}

// Put pushes v, which must be on no chain, onto the free chain.
func (p *Pool[T]) Put(v *T, link func(*T) **T) { *link(v), p.head = p.head, v }

// Top returns the value Pop would return next, nil when the chain is
// empty.
func (p *Pool[T]) Top() *T { return p.head }
