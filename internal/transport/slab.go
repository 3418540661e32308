package transport

// Slabs start at two records and double to 64: a figure run with a
// handful of flows pays for a handful, a 3,000-flow run pays one malloc
// per 64 (a fixed 64-record slab cost the 14 tiny runs of the benchmark's
// paper_figures workload 3.6% more bytes).
const slabMin, slabMax = 2, 64

// slab hands out zeroed records carved from arrays allocated a slab at a
// time: the kernel's flow records, receiver records, a FIFOPool's block
// headers and a SparsePool's chunks. Nothing is ever handed back to a
// slab; records that are recycled go through their owner's free list.
// The zero value is ready to use.
type slab[T any] struct {
	free []T // the unused tail of the current array
	n    int // the length the current array was made with
}

// next returns the next zeroed record, starting a new array when the
// current one is used up.
func (s *slab[T]) next() *T { return s.nextOf(slabMax) }

// reserve makes the next n records one array, when n is more than the
// current array has left; past them, arrays double again up to slabMax.
func (s *slab[T]) reserve(n int) {
	if n > len(s.free) {
		s.free, s.n = make([]T, n), n
	}
}

// nextOf is next for an owner that will take at most most more records
// (this one included): a new array is no longer than that, so a run
// with three flows carves three receiver records, not 2 + 4.
func (s *slab[T]) nextOf(most int) *T {
	if len(s.free) == 0 {
		s.n = min(max(2*s.n, slabMin), slabMax, max(most, 1))
		s.free = make([]T, s.n)
	}
	r := &s.free[0]
	s.free = s.free[1:]
	return r
}

// nextIn is next for an owner that will take exactly left more records
// (this one included), and wants them in one array: a new array holds
// them all.
func (s *slab[T]) nextIn(left int) *T {
	if len(s.free) == 0 {
		s.n = max(left, 1)
		s.free = make([]T, s.n)
	}
	r := &s.free[0]
	s.free = s.free[1:]
	return r
}
