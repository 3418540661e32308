package netsim

// slab hands out zeroed values of one type carved from arrays it
// allocates a chunk at a time, so a network's hosts, switches, ports,
// queues, markers, monitors and switch tables cost one allocation per
// kind rather than one per object. Carved values never move (a full
// chunk is left where it is and a new one started) and are never handed
// back: they live as long as the network that carved them.
//
// left is how many more values the owner expects to carve, as Reserve
// or NewSlabs sized it: a new chunk is exactly that long, so a fabric
// whose builder knew its counts carves each kind from one array with no
// slot to spare. Past the reservation, or without one (a network built
// by hand), chunks double from 2 to 64.
type slab[T any] struct {
	free []T
	left int
	last int // length of the last chunk made past the reservation
}

// take returns k contiguous zeroed values, capped at k so appending to
// the span copies rather than runs into a neighbour's.
func (s *slab[T]) take(k int) []T {
	if len(s.free) < k {
		n := s.left
		if n < k {
			s.last = min(max(2*s.last, 2), 64)
			n = max(k, s.last)
		}
		s.free = make([]T, n)
	}
	span := s.free[:k:k]
	s.free = s.free[k:]
	s.left = max(s.left-k, 0)
	return span
}

// one returns a single zeroed value.
func (s *slab[T]) one() *T { return &s.take(1)[0] }

// Slabs carves the queues and anti-ECN markers of one role in a
// fabric — its host NICs, or its switch ports — from one array per kind.
// A builder knows how many ports the role has, and a stack's factory
// makes the same kind of queue (and a fault plan the same wrappers) for
// every one of them, so each kind's first array is sized for them all.
// The carved objects belong to the network whose ports hold them and
// live as long as it does.
//
// A nil *Slabs is valid: each object is then allocated on its own, the
// form for a queue or marker outside any fabric (a unit test, a
// benchmark probe).
type Slabs struct {
	dropTail slab[DropTailQueue]
	priority slab[PriorityQueue]
	ecn      slab[ECNQueue]
	trimming slab[TrimmingQueue]
	lossy    slab[LossyQueue]
	gilbert  slab[GilbertElliottQueue]
	markers  slab[AntiECNMarker]
}

// NewSlabs returns the slabs of a role with count ports.
func NewSlabs(count int) *Slabs {
	s := &Slabs{}
	s.dropTail.left, s.priority.left, s.ecn.left, s.trimming.left = count, count, count, count
	s.lossy.left, s.gilbert.left, s.markers.left = count, count, count
	return s
}

// carve returns a zeroed T from the slab of s that kind picks, or one
// of its own when s is nil.
func carve[T any](s *Slabs, kind func(*Slabs) *slab[T]) *T {
	if s == nil {
		return new(T)
	}
	return kind(s).one()
}

// NewAntiECNMarker returns an anti-ECN marker with the given reference
// size, gap factor and combining mode (see AntiECNMarker).
func (s *Slabs) NewAntiECNMarker(refSize int, gapFactor float64, mode CombineMode) *AntiECNMarker {
	m := carve(s, func(s *Slabs) *slab[AntiECNMarker] { return &s.markers })
	m.RefSize, m.GapFactor, m.Mode = refSize, gapFactor, mode
	return m
}
