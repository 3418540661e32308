package transport

// FIFO is a first-in first-out queue that reuses its backing array.
// The stacks' pacer queues fill and drain continuously; popping with
// q = q[1:] gives up the capacity in front of the head, so every
// append after a drain regrows the slice. FIFO advances a head index
// instead, rewinds to the start of the array whenever it empties, and
// slides the live elements down when the array is full but at least
// half of it is dead space. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the head element. It panics on an empty
// queue, like indexing an empty slice.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // do not pin what v points to
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Reset empties the queue, keeping the backing array.
func (q *FIFO[T]) Reset() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}
