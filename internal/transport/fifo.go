package transport

import "amrt/internal/slab"

// FIFO is a first-in first-out queue kept in a chain of blocks. The
// stacks' pacer and loss-recovery queues fill and drain continuously,
// and a synchronized incast makes a recovery queue hold thousands of
// entries for a moment: a doubling slice would keep that peak for the
// rest of the run, for every host. A FIFO instead puts each block its
// head leaves back on its pool's free list; a queue that empties keeps
// just its last block, for the next push. Every FIFO of one protocol
// instance that queues the same type shares one FIFOPool (SetPool): an
// instance runs on one shard's goroutine, so the pool needs no lock,
// and the instance's queues together hold the blocks their peak total
// length needed plus one per idle queue.
//
// A queue's first block holds fifoBlockMin entries and each fresh block
// it asks for matches its length so far, up to fifoBlockMax, so a queue
// of a few entries costs a few entries; a block taken off the free list
// may be of any size. The zero value is an empty queue with a pool of
// its own.
type FIFO[T any] struct {
	head, tail *fifoBlock[T] // an emptied queue keeps tail, head is nil
	hi, ti     int           // first live entry of head; first free slot of tail
	n          int
	pool       *FIFOPool[T]
}

// Block lengths: a queue starts at fifoBlockMin entries and doubles its
// room up to blocks of fifoBlockMax.
const fifoBlockMin, fifoBlockMax = 4, 128

type fifoBlock[T any] struct {
	ents []T
	next *fifoBlock[T]
}

// FIFOPool is the free list of FIFO blocks the queues of one protocol
// instance share. A fresh block's header comes from the pool's slab and
// its entries are one allocation of the length asked for: carving them
// too would strand a chunk's tail whenever a queue's next block outgrows
// it, which costs a run of a few flows more bytes than the allocations
// it saves. The zero value is an empty pool; a pool must not be shared
// across goroutines.
type FIFOPool[T any] struct {
	blocks slab.Pool[fifoBlock[T]]
}

// block returns a free block, or a fresh one of n entries.
func (p *FIFOPool[T]) block(n int) *fifoBlock[T] {
	b := p.blocks.Pop(fifoLink)
	if b == nil {
		b = p.blocks.One()
		b.ents = make([]T, n)
	}
	return b
}

// fifoLink is the free list's link: the block's queue link.
func fifoLink[T any](b *fifoBlock[T]) **fifoBlock[T] { return &b.next }

// SetPool makes q take its blocks from p and return them there. Call it
// before the first Push.
func (q *FIFO[T]) SetPool(p *FIFOPool[T]) {
	if q.tail != nil {
		panic("transport: FIFO.SetPool on a queue holding blocks")
	}
	q.pool = p
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.head != nil && q.ti < len(q.tail.ents) {
		q.tail.ents[q.ti] = v
		q.ti++
		q.n++
		return
	}
	q.pushBlock(v)
}

// pushBlock appends v at the start of a block: the one an emptied queue
// kept, a new first block, or a successor to a full tail.
func (q *FIFO[T]) pushBlock(v T) {
	b := q.tail
	switch {
	case b != nil && q.head == nil:
		q.head, q.hi = b, 0
	case b == nil:
		if q.pool == nil {
			q.pool = new(FIFOPool[T])
		}
		b = q.pool.block(fifoBlockMin)
		q.head = b
	default:
		b.next = q.pool.block(min(max(q.n, fifoBlockMin), fifoBlockMax))
		b = b.next
	}
	q.tail, q.ti, q.n = b, 1, q.n+1
	b.ents[0] = v
}

// Peek returns the head element without removing it. It panics on an
// empty queue.
func (q *FIFO[T]) Peek() T { return q.head.ents[q.hi] }

// Pop removes and returns the head element. It panics on an empty
// queue.
func (q *FIFO[T]) Pop() T {
	b := q.head
	v := b.ents[q.hi]
	var zero T
	b.ents[q.hi] = zero // do not pin what v points to
	q.hi++
	q.n--
	if q.n == 0 {
		q.head = nil // the block stays as tail: the pacer pattern refills it
	} else if q.hi == len(b.ents) {
		q.head, q.hi = b.next, 0
		q.pool.blocks.Put(b, fifoLink)
	}
	return v
}

// Reset empties the queue, returning its blocks to the pool.
func (q *FIFO[T]) Reset() {
	b := q.head
	if b == nil {
		b = q.tail // the block an emptied queue kept, if any
	}
	for b != nil {
		next := b.next
		clear(b.ents)
		q.pool.blocks.Put(b, fifoLink)
		b = next
	}
	q.head, q.tail, q.hi, q.ti, q.n = nil, nil, 0, 0, 0
}
