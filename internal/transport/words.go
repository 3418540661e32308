package transport

import "slices"

// WordPool is the free list of bitmap backing arrays one protocol
// instance's records share (every Records table of a kernel draws from
// the kernel's pool). A record that needs an array of n words takes the
// shortest free one at least that long, or a fresh one of exactly n
// words when none is; the array goes back when the record ends (End) or
// its flow completes (ReleaseBitmaps). So an instance holds the arrays
// its peak of live records needed, whatever the run's flow count, and
// never more bytes than a record keeping its own array would have
// allocated. An instance runs on one shard's goroutine, so the pool
// needs no lock. The zero value is an empty pool.
type WordPool struct {
	free [][]uint64 // ascending by length
}

// get returns an array of at least n > 0 words whose first n are zero.
func (p *WordPool) get(n int) []uint64 {
	i, _ := slices.BinarySearchFunc(p.free, n, func(w []uint64, n int) int { return len(w) - n })
	if i == len(p.free) {
		return make([]uint64, n)
	}
	w := p.free[i]
	p.free = slices.Delete(p.free, i, i+1)
	clear(w[:n])
	return w
}

// put hands w, an array get returned, back to the pool. Among arrays of
// one length the last one put is the first one taken. The free list
// doubles by hand: slices.Insert's growth allocates twice under the race
// detector, and the allocation guards count the same either way.
func (p *WordPool) put(w []uint64) {
	i, _ := slices.BinarySearchFunc(p.free, len(w), func(f []uint64, n int) int { return len(f) - n })
	if len(p.free) == cap(p.free) {
		moved := make([][]uint64, len(p.free), max(2*cap(p.free), 4))
		copy(moved, p.free)
		p.free = moved
	}
	p.free = p.free[:len(p.free)+1]
	copy(p.free[i+1:], p.free[i:])
	p.free[i] = w
}
