package transport

import (
	"testing"
	"testing/quick"
)

// newBitmap returns an empty heap-allocated bitmap of n bits.
func newBitmap(n int32) *Bitmap {
	b := new(Bitmap)
	InitBitmaps(n, b)
	return b
}

// checkBitmap fails t unless b holds exactly model's bits and an exact
// low-water mark.
func checkBitmap(t *testing.T, b *Bitmap, model []bool) {
	t.Helper()
	checkLowWater(t, b)
	var set int32
	for i, want := range model {
		if b.Get(int32(i)) != want {
			t.Fatalf("n=%d: Get(%d) = %v, model %v", len(model), i, !want, want)
		}
		if want {
			set++
		}
	}
	if b.Count() != set || b.Len() != int32(len(model)) || b.Full() != (set == b.Len()) {
		t.Fatalf("n=%d: Count %d, Len %d, Full %v; model holds %d", len(model), b.Count(), b.Len(), b.Full(), set)
	}
}

// checkLowWater fails t unless b's low-water mark is the index of its
// first word that is not full.
func checkLowWater(t *testing.T, b *Bitmap) {
	t.Helper()
	low := 0
	for low < len(b.words) && b.words[low] == ^uint64(0) {
		low++
	}
	if int(b.low) != low {
		t.Fatalf("n=%d: low-water word %d, first word not full is %d", b.n, b.low, low)
	}
}

// modelNextClear is NextClearBoth on []bool models (o nil: a alone).
func modelNextClear(a, o []bool, from int32) int32 {
	for i := max(from, 0); i < int32(len(a)); i++ {
		if !a[i] && (o == nil || !o[i]) {
			return i
		}
	}
	return -1
}

func TestBitmapBasics(t *testing.T) {
	b := newBitmap(130)
	if b.Len() != 130 || b.Count() != 0 || b.Full() {
		t.Fatal("fresh bitmap state wrong")
	}
	if !b.Set(0) || !b.Set(64) || !b.Set(129) {
		t.Fatal("Set returned false for new bits")
	}
	if b.Set(64) {
		t.Error("double Set should report false")
	}
	if b.Count() != 3 {
		t.Errorf("Count = %d", b.Count())
	}
	if !b.Get(64) || b.Get(63) {
		t.Error("Get wrong")
	}
	if b.Set(-1) || b.Set(130) {
		t.Error("out-of-range Set should report false")
	}
	if b.Get(-1) || b.Get(130) {
		t.Error("out-of-range Get should report false")
	}
}

func TestBitmapNextClear(t *testing.T) {
	b := newBitmap(200)
	for i := int32(0); i < 150; i++ {
		b.Set(i)
	}
	if got := b.NextClear(0); got != 150 {
		t.Errorf("NextClear(0) = %d, want 150", got)
	}
	b.Set(150)
	if got := b.NextClear(100); got != 151 {
		t.Errorf("NextClear(100) = %d, want 151", got)
	}
	for i := int32(151); i < 200; i++ {
		b.Set(i)
	}
	if got := b.NextClear(0); got != -1 {
		t.Errorf("NextClear on full = %d", got)
	}
	if !b.Full() {
		t.Error("bitmap should be full")
	}
}

// TestBitmapNextClearFrom: a from below 0 counts as 0 (truncating
// division once sent -1 to word 0, bit 63), and one at or past the end
// finds nothing.
func TestBitmapNextClearFrom(t *testing.T) {
	const n = 130
	froms := []int32{-5, -1, 0, 63, 64, n - 1, n}
	for _, tc := range []struct {
		name string
		set  []int32
		want []int32 // per from
	}{
		{"empty", nil, []int32{0, 0, 0, 63, 64, n - 1, -1}},
		{"bit 0", []int32{0}, []int32{1, 1, 1, 63, 64, n - 1, -1}},
		{"word 0 full", seqs(0, 64), []int32{64, 64, 64, 64, 64, n - 1, -1}},
		{"all but the last", seqs(0, n-1), []int32{n - 1, n - 1, n - 1, n - 1, n - 1, n - 1, -1}},
		{"full", seqs(0, n), []int32{-1, -1, -1, -1, -1, -1, -1}},
	} {
		b := newBitmap(n)
		for _, i := range tc.set {
			b.Set(i)
		}
		for k, from := range froms {
			if got := b.NextClear(from); got != tc.want[k] {
				t.Errorf("%s: NextClear(%d) = %d, want %d", tc.name, from, got, tc.want[k])
			}
		}
	}
}

// seqs returns lo..hi-1.
func seqs(lo, hi int32) []int32 {
	var s []int32
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// TestBitmapNextClearProperty: random sets and clears, then NextClear
// from a random start, against a []bool model.
func TestBitmapNextClearProperty(t *testing.T) {
	f := func(ops []uint16, from uint16) bool {
		const n = 512
		b := newBitmap(n)
		model := make([]bool, n)
		for _, op := range ops {
			i := int32(op>>1) % n
			if op&1 == 0 {
				b.Set(i)
			} else {
				b.Clear(i)
			}
			model[i] = op&1 == 0
		}
		checkBitmap(t, b, model)
		start := int32(from % n)
		return b.NextClear(start) == modelNextClear(model, nil, start)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBitmapClear(t *testing.T) {
	b := newBitmap(130)
	for _, i := range []int32{0, 63, 64, 129} {
		b.Set(i)
	}
	if !b.Clear(64) || b.Get(64) || b.Count() != 3 {
		t.Errorf("Clear(64): Get = %v, Count = %d, want false, 3", b.Get(64), b.Count())
	}
	if b.Clear(64) || b.Clear(5) {
		t.Error("Clear of a clear bit should report false")
	}
	if b.Clear(-1) || b.Clear(130) || b.Count() != 3 {
		t.Errorf("out-of-range Clear should report false and change nothing, Count = %d", b.Count())
	}
	if got := b.NextClear(63); got != 64 {
		t.Errorf("NextClear(63) = %d, want the cleared 64", got)
	}
	for i := int32(0); i < 130; i++ {
		b.Set(i)
	}
	if !b.Full() {
		t.Fatal("bitmap should be full")
	}
	if !b.Clear(129) || b.Full() || b.NextClear(0) != 129 {
		t.Errorf("after Clear(129): Full = %v, NextClear(0) = %d, want false, 129", b.Full(), b.NextClear(0))
	}
	if !b.Set(129) || !b.Full() || b.NextClear(0) != -1 {
		t.Error("setting the cleared bit again should fill the bitmap")
	}
}

// TestInitBitmaps: bitmaps initialized together share no bits, at sizes
// on either side of a word boundary.
func TestInitBitmaps(t *testing.T) {
	for _, n := range []int32{1, 64, 65, 200} {
		var a, b Bitmap
		InitBitmaps(n, &a, &b)
		if a.Len() != n || b.Len() != n || a.Count() != 0 || b.Count() != 0 {
			t.Fatalf("n=%d: fresh bitmaps have Len %d, %d and Count %d, %d", n, a.Len(), b.Len(), a.Count(), b.Count())
		}
		for i := int32(0); i < n; i++ {
			a.Set(i)
		}
		if !a.Full() || b.Count() != 0 || b.NextClear(0) != 0 {
			t.Errorf("n=%d: filling one bitmap leaked into the other (Count %d)", n, b.Count())
		}
		b.Set(n - 1)
		a.Clear(n - 1)
		if !b.Get(n-1) || a.Get(n-1) {
			t.Errorf("n=%d: last bits of the two bitmaps are not independent", n)
		}
	}
}

// TestBitmapAllocs: initialising the bitmaps a heap record embeds costs
// nothing up to 64 bits (the word is inline) and one backing array past
// that, however many bitmaps the record holds.
func TestBitmapAllocs(t *testing.T) {
	type record struct{ a, b, c Bitmap }
	r := new(record)
	for _, n := range []int32{1, 64, 65, 1000} {
		want := 0.0
		if n > 64 {
			want = 1
		}
		for k, bs := range [][]*Bitmap{{&r.a}, {&r.a, &r.b}, {&r.a, &r.b, &r.c}} {
			if got := testing.AllocsPerRun(100, func() { InitBitmaps(n, bs...) }); got != want {
				t.Errorf("n=%d: InitBitmaps of %d bitmaps allocates %v times, want %v", n, k+1, got, want)
			}
		}
	}
}

// fuzzBitmapSizes straddle the inline word and word boundaries.
var fuzzBitmapSizes = []int32{1, 63, 64, 65, 128, 1000}

// fuzzBitmapMaxScript caps a script at 400 steps: enough to fill and
// hole the first words of the largest size, short enough that the
// fuzzer's minimisation stays quick.
const fuzzBitmapMaxScript = 1 + 3*400

// FuzzBitmap runs a script of Set, Clear, NextClear and NextClearBoth
// over two bitmaps initialised together against []bool models. data[0]
// picks the size; each following 3-byte record is an op byte (low two
// bits: the op, bit 2: which bitmap) and a little-endian index that
// reaches 5 past either end. Set and Clear must report what the models
// say, every step must leave both bitmaps with an exact low-water mark,
// and the script must end with both holding their models' bits.
func FuzzBitmap(f *testing.F) {
	f.Add([]byte{0, 0, 5, 0, 2, 5, 0, 3, 5, 0})          // n=1: set bit 0, both scans
	f.Add([]byte{2, 0, 68, 0, 1, 68, 0, 2, 0, 0})        // n=64: set and clear bit 63, scan from -5
	f.Add([]byte{3, 0, 5, 0, 4, 5, 0, 3, 5, 0, 1, 5, 0}) // n=65: bit 0 in both, union scan
	f.Add([]byte{1, 2, 0, 0, 2, 4, 0, 2, 68, 0})         // n=63: scans from -5, -1 and n
	script := []byte{5}
	for i := 0; i < 300; i++ { // n=1000: fill the first words, then hole them
		script = append(script, 0, byte(i+5), byte((i+5)>>8))
	}
	script = append(script, 1, 75, 0, 2, 0, 0, 1, 200, 0, 3, 0, 0)
	f.Add(script)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > fuzzBitmapMaxScript {
			data = data[:fuzzBitmapMaxScript]
		}
		n := fuzzBitmapSizes[int(data[0])%len(fuzzBitmapSizes)]
		var bms [2]Bitmap
		InitBitmaps(n, &bms[0], &bms[1])
		models := [2][]bool{make([]bool, n), make([]bool, n)}
		for rec := data[1:]; len(rec) >= 3; rec = rec[3:] {
			k := int(rec[0]>>2) & 1
			b, model := &bms[k], models[k]
			i := int32(uint16(rec[1])|uint16(rec[2])<<8)%(n+10) - 5
			inRange := i >= 0 && i < n
			switch rec[0] & 3 {
			case 0:
				if got, want := b.Set(i), inRange && !model[i]; got != want {
					t.Fatalf("n=%d: Set(%d) = %v, want %v", n, i, got, want)
				}
				if inRange {
					model[i] = true
				}
			case 1:
				if got, want := b.Clear(i), inRange && model[i]; got != want {
					t.Fatalf("n=%d: Clear(%d) = %v, want %v", n, i, got, want)
				}
				if inRange {
					model[i] = false
				}
			case 2:
				if got, want := b.NextClear(i), modelNextClear(model, nil, i); got != want {
					t.Fatalf("n=%d: NextClear(%d) = %d, want %d", n, i, got, want)
				}
			case 3:
				o := &bms[1-k]
				if got, want := b.NextClearBoth(o, i), modelNextClear(model, models[1-k], i); got != want {
					t.Fatalf("n=%d: NextClearBoth(%d) = %d, want %d", n, i, got, want)
				}
			}
			checkLowWater(t, &bms[0])
			checkLowWater(t, &bms[1])
		}
		checkBitmap(t, &bms[0], models[0])
		checkBitmap(t, &bms[1], models[1])
	})
}
