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
