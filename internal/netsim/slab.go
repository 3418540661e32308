package netsim

import "amrt/internal/slab"

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
	dropTail slab.Slab[DropTailQueue]
	priority slab.Slab[PriorityQueue]
	ecn      slab.Slab[ECNQueue]
	trimming slab.Slab[TrimmingQueue]
	lossy    slab.Slab[LossyQueue]
	gilbert  slab.Slab[GilbertElliottQueue]
	markers  slab.Slab[AntiECNMarker]
}

// NewSlabs returns the slabs of a role with count ports.
func NewSlabs(count int) *Slabs {
	s := &Slabs{}
	s.dropTail.Reserve(count)
	s.priority.Reserve(count)
	s.ecn.Reserve(count)
	s.trimming.Reserve(count)
	s.lossy.Reserve(count)
	s.gilbert.Reserve(count)
	s.markers.Reserve(count)
	return s
}

// carve returns a zeroed T from the slab of s that kind picks, or one
// of its own when s is nil.
func carve[T any](s *Slabs, kind func(*Slabs) *slab.Slab[T]) *T {
	if s == nil {
		return new(T)
	}
	return kind(s).One()
}

// NewAntiECNMarker returns an anti-ECN marker with the given gap factor
// and combining mode (see AntiECNMarker).
func (s *Slabs) NewAntiECNMarker(gapFactor float64, mode CombineMode) *AntiECNMarker {
	m := carve(s, func(s *Slabs) *slab.Slab[AntiECNMarker] { return &s.markers })
	m.GapFactor, m.Mode = gapFactor, mode
	return m
}
