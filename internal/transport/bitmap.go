package transport

// Bitmap tracks which data packets of a flow have been received. The
// zero value is unusable; create with NewBitmap or InitBitmaps.
type Bitmap struct {
	words []uint64
	n     int32 // capacity in bits
	set   int32 // number of set bits
}

// NewBitmap returns a bitmap for n packets.
func NewBitmap(n int32) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// InitBitmaps makes each of bs an empty bitmap of n bits, all of them
// over one backing array: a record that embeds several bitmaps by value
// pays one allocation for the lot.
func InitBitmaps(n int32, bs ...*Bitmap) {
	w := int(n+63) / 64
	words := make([]uint64, w*len(bs))
	for i, b := range bs {
		*b = Bitmap{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
	}
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
func (b *Bitmap) NextClear(from int32) int32 {
	for i := from; i < b.n; i++ {
		w := b.words[i/64]
		if w == ^uint64(0) {
			// Skip the rest of a fully set word.
			i = (i/64+1)*64 - 1
			continue
		}
		if w&(uint64(1)<<(uint(i)%64)) == 0 {
			return i
		}
	}
	return -1
}
