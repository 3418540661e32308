package transport

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSparse(t *testing.T) {
	type step struct {
		op      string // put, del, get
		seq     int32
		v       int
		wantV   int
		wantOK  bool
		wantLen int
	}
	steps := []step{
		{op: "get", seq: 3, wantLen: 0},
		{op: "del", seq: 3, wantLen: 0}, // absent: no-op
		{op: "put", seq: 3, v: 30, wantLen: 1},
		{op: "put", seq: 9, v: 90, wantLen: 2},
		{op: "get", seq: 3, wantV: 30, wantOK: true, wantLen: 2},
		{op: "put", seq: 3, v: 31, wantLen: 2}, // overwrite, not a second entry
		{op: "get", seq: 3, wantV: 31, wantOK: true, wantLen: 2},
		{op: "get", seq: 4, wantLen: 2},
		{op: "del", seq: 3, wantLen: 1},
		{op: "get", seq: 3, wantLen: 1},
		{op: "get", seq: 9, wantV: 90, wantOK: true, wantLen: 1},
		{op: "del", seq: 3, wantLen: 1}, // absent again
		{op: "del", seq: 9, wantLen: 0},
		{op: "put", seq: 0, v: 1, wantLen: 1},
		{op: "get", seq: 0, wantV: 1, wantOK: true, wantLen: 1},
	}
	var s Sparse[int]
	for i, st := range steps {
		switch st.op {
		case "put":
			s.Put(st.seq, st.v)
		case "del":
			s.Delete(st.seq)
		case "get":
			if v, ok := s.Get(st.seq); v != st.wantV || ok != st.wantOK {
				t.Errorf("step %d: Get(%d) = %d, %v, want %d, %v", i, st.seq, v, ok, st.wantV, st.wantOK)
			}
		}
		if s.Len() != st.wantLen {
			t.Errorf("step %d (%s %d): Len = %d, want %d", i, st.op, st.seq, s.Len(), st.wantLen)
		}
	}
}

// TestSparseAgainstMap drives a Sparse and a map through the same 1000
// random steps; after each they must agree on Len, on every lookup and
// on the multiset Each visits.
func TestSparseAgainstMap(t *testing.T) {
	type pair struct {
		seq int32
		v   int
	}
	rng := rand.New(rand.NewSource(1))
	var s Sparse[int]
	ref := map[int32]int{}
	for step := 0; step < 1000; step++ {
		seq := int32(rng.Intn(24)) // small key space: overwrites and hits are common
		switch rng.Intn(3) {
		case 0, 1:
			s.Put(seq, step)
			ref[seq] = step
		case 2:
			s.Delete(seq)
			delete(ref, seq)
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, map has %d", step, s.Len(), len(ref))
		}
		for k := int32(0); k < 24; k++ {
			v, ok := s.Get(k)
			if rv, rok := ref[k]; v != rv || ok != rok {
				t.Fatalf("step %d: Get(%d) = %d, %v, map says %d, %v", step, k, v, ok, rv, rok)
			}
		}
		var got, want []pair
		s.Each(func(seq int32, v int) { got = append(got, pair{seq, v}) })
		for k, v := range ref {
			want = append(want, pair{k, v})
		}
		bySeq := func(a, b pair) int { return int(a.seq - b.seq) }
		slices.SortFunc(got, bySeq)
		slices.SortFunc(want, bySeq)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: Each visited %v, map holds %v", step, got, want)
		}
	}
}

func TestBitmapClear(t *testing.T) {
	b := NewBitmap(130)
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

// TestInitBitmaps: bitmaps initialized together share one allocation
// but no bits, at sizes on either side of a word boundary.
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
	if allocs := testing.AllocsPerRun(100, func() {
		var a, b Bitmap
		InitBitmaps(200, &a, &b)
	}); allocs != 1 {
		t.Errorf("InitBitmaps of two bitmaps allocates %v times, want 1", allocs)
	}
}
