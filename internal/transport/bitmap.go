package transport

import "math/bits"

// Bitmap is a fixed-length set of packet sequence numbers of one flow:
// received, in flight, reissued, whatever its owner tracks. The zero
// value is unusable; make bitmaps with InitBitmaps, inside the record
// that owns them.
//
// A bitmap of at most 64 bits keeps its one word inside the struct, so
// an initialised Bitmap must not be copied: the copy would still point
// at the original's word.
type Bitmap struct {
	words  []uint64
	inline [1]uint64 // words of a bitmap of ≤ 64 bits
	n      int32     // capacity in bits
	set    int32     // number of set bits
	// low is the low-water word index: every word below it is full, so
	// a scan for a clear bit starts there.
	low int32
}

// InitBitmaps makes each of bs an empty bitmap of n bits. A bitmap of
// n ≤ 64 bits keeps its word inline and allocates nothing; longer ones
// share one backing array, so a record that embeds several bitmaps by
// value pays one allocation for the lot.
func InitBitmaps(n int32, bs ...*Bitmap) { initBitmaps(n, nil, bs) }

// initBitmaps is InitBitmaps on the backing array words an earlier call
// returned (nil for none), reused and cleared when it is long enough. It
// returns the array the bitmaps share: words itself when they are inline.
func initBitmaps(n int32, words []uint64, bs []*Bitmap) []uint64 {
	if n <= 64 {
		for _, b := range bs {
			*b = Bitmap{n: n}
			b.words = b.inline[:]
		}
		return words
	}
	w := int(n+63) / 64
	if need := w * len(bs); need <= cap(words) {
		words = words[:need]
		clear(words)
	} else {
		words = make([]uint64, need)
	}
	for i, b := range bs {
		*b = Bitmap{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
	}
	return words
}

// Set marks bit i and reports whether it was newly set.
func (b *Bitmap) Set(i int32) bool {
	if i < 0 || i >= b.n {
		return false
	}
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	b.set++
	if w == b.low {
		for int(b.low) < len(b.words) && b.words[b.low] == ^uint64(0) {
			b.low++
		}
	}
	return true
}

// Clear unmarks bit i and reports whether it was set.
func (b *Bitmap) Clear(i int32) bool {
	if i < 0 || i >= b.n {
		return false
	}
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if b.words[w]&m == 0 {
		return false
	}
	b.words[w] &^= m
	b.set--
	b.low = min(b.low, w)
	return true
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int32) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(uint64(1)<<(uint(i)%64)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int32 { return b.set }

// Len returns the capacity in bits.
func (b *Bitmap) Len() int32 { return b.n }

// Full reports whether every bit is set.
func (b *Bitmap) Full() bool { return b.set == b.n }

// NextClear returns the first clear bit at or after from, or -1 if none.
// A negative from counts as 0.
func (b *Bitmap) NextClear(from int32) int32 {
	return b.scan(nil, from)
}

// NextClearBoth returns the first bit at or after from that is clear in
// both b and o, or -1 if none, in one word scan over b | o: the first
// sequence neither received nor in flight, say. o must be as long as b.
// A negative from counts as 0.
func (b *Bitmap) NextClearBoth(o *Bitmap, from int32) int32 {
	return b.scan(o, from)
}

// scan is NextClear over the union of b and o (nil: b alone). It starts
// at the higher of from's word and the low-water marks, below which
// every word of b (or of o) is full and so holds no answer.
func (b *Bitmap) scan(o *Bitmap, from int32) int32 {
	from = max(from, 0)
	w, low := from/64, b.low
	if o != nil {
		low = max(low, o.low)
	}
	mask := ^uint64(0) << (uint(from) % 64)
	if w < low {
		w, mask = low, ^uint64(0)
	}
	for ; int(w) < len(b.words); w++ {
		x := b.words[w]
		if o != nil {
			x |= o.words[w]
		}
		if free := ^x & mask; free != 0 {
			if i := w*64 + int32(bits.TrailingZeros64(free)); i < b.n {
				return i
			}
			return -1
		}
		mask = ^uint64(0)
	}
	return -1
}
