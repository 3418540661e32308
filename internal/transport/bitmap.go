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
// value pays one allocation for the lot. Bitmaps inside a pooled record
// take their array from the instance's WordPool instead
// (Records.InitBitmaps).
func InitBitmaps(n int32, bs ...*Bitmap) {
	var words []uint64
	if need := bitmapWords(n, len(bs)); need > 0 {
		words = make([]uint64, need)
	}
	initBitmaps(n, words, bs)
}

// bitmapWords returns how many backing words k bitmaps of n bits share:
// none when their words are inline.
func bitmapWords(n int32, k int) int {
	if n <= 64 {
		return 0
	}
	return int(n+63) / 64 * k
}

// initBitmaps lays bs, bitmaps of n bits, on words, whose first
// bitmapWords(n, len(bs)) words are zero (nil when that is none).
func initBitmaps(n int32, words []uint64, bs []*Bitmap) {
	if n <= 64 {
		for _, b := range bs {
			*b = Bitmap{n: n}
			b.words = b.inline[:]
		}
		return
	}
	w := int(n+63) / 64
	for i, b := range bs {
		*b = Bitmap{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
	}
}

// release lets go of b's words, leaving a bitmap that answers every read
// as a full one of its length: Set reports false, Get true, Count and
// Len n, NextClear -1. Clear on it panics. A stack releases
// the bitmaps of a record it keeps once the flow is complete
// (Records.ReleaseBitmaps), when the bitmap it still reads is full.
func (b *Bitmap) release() { *b = Bitmap{n: b.n, set: b.n} }

// Set marks bit i and reports whether it was newly set.
func (b *Bitmap) Set(i int32) bool {
	if i < 0 || i >= b.n || b.set == b.n {
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
	if b.set == b.n { // full, or released
		return true
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
// every word of b (or of o) is full and so holds no answer; a full
// (or released) b or o holds none at all.
func (b *Bitmap) scan(o *Bitmap, from int32) int32 {
	if b.set == b.n || o != nil && o.set == o.n {
		return -1
	}
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
