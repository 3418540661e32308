package transport

// Sparse maps packet sequence numbers to values for the few sequences
// of a flow that are in an exceptional state at once: core's and SIRD's
// reissue times of the sequences awaiting a retransmission. (pHost's
// token expiries live in its own queue, internal/phost/expiry.go.) It
// is an unordered slice searched linearly: at the handful of entries a
// flow carries that beats a map's hashing, and an empty one costs
// nothing, where a map per flow is several allocations before the first
// insert. Where membership is tested for every packet of a flow, keep a
// Bitmap beside it and consult the Sparse only on a hit. The zero value
// is empty.
type Sparse[V any] struct {
	ents []sparseEnt[V]
}

type sparseEnt[V any] struct {
	seq int32
	v   V
}

func (s *Sparse[V]) find(seq int32) int {
	for i := range s.ents {
		if s.ents[i].seq == seq {
			return i
		}
	}
	return -1
}

// Len returns the number of entries.
func (s *Sparse[V]) Len() int { return len(s.ents) }

// Get returns the value stored for seq and whether there is one.
func (s *Sparse[V]) Get(seq int32) (v V, ok bool) {
	if i := s.find(seq); i >= 0 {
		return s.ents[i].v, true
	}
	return v, false
}

// Put stores v for seq, replacing any earlier value.
func (s *Sparse[V]) Put(seq int32, v V) {
	if i := s.find(seq); i >= 0 {
		s.ents[i].v = v
		return
	}
	if s.ents == nil {
		// A flow that loses one packet usually loses several: start past
		// append's 1-2-4 steps.
		s.ents = make([]sparseEnt[V], 0, 8)
	}
	s.ents = append(s.ents, sparseEnt[V]{seq, v})
}

// Delete removes seq's entry; deleting an absent seq is a no-op.
func (s *Sparse[V]) Delete(seq int32) {
	i := s.find(seq)
	if i < 0 {
		return
	}
	last := len(s.ents) - 1
	s.ents[i] = s.ents[last]
	s.ents[last] = sparseEnt[V]{} // do not pin what the value points to
	s.ents = s.ents[:last]
}

// Each calls fn for every entry. The order is unspecified but, unlike a
// map's, a pure function of the Put/Delete history, so a caller that
// schedules events from fn stays deterministic. fn must not modify the
// set.
func (s *Sparse[V]) Each(fn func(seq int32, v V)) {
	for _, e := range s.ents {
		fn(e.seq, e.v)
	}
}
