package transport

import (
	"fmt"
	"maps"
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

// fuzzSparseSets is how many Sparses a FuzzSparse script drives over one
// shared pool; fuzzSparseKeys bounds their keys, so overwrites and hits
// are common and a set spans several chunks.
const fuzzSparseSets, fuzzSparseKeys, fuzzSparseMaxScript = 3, 40, 1 << 12

// checkSparses holds the pool's invariants over sets that share it:
// each set's chunks carry exactly its model's entries, a set of n
// entries holds ceil(n/sparseChunkLen) chunks with only the top one
// partly filled, every chunk is in one set or on the free list and never
// both, no chunk seen before (seen, which it extends) has gone from
// both, and every unused slot is zero.
func checkSparses(pool *SparsePool[int], ss []Sparse[int], models []map[int32]int, seen map[*sparseChunk[int]]bool) error {
	owner := map[*sparseChunk[int]]string{}
	claim := func(c *sparseChunk[int], who string) error {
		if prev, ok := owner[c]; ok {
			return fmt.Errorf("chunk %p is in %s and in %s", c, prev, who)
		}
		owner[c] = who
		return nil
	}
	for c := pool.chunks.Top(); c != nil; c = c.next {
		if err := claim(c, "the free list"); err != nil {
			return err
		}
		if c.ents != [sparseChunkLen]sparseEnt[int]{} {
			return fmt.Errorf("free chunk %p holds entries", c)
		}
	}
	for k := range ss {
		s, model := &ss[k], models[k]
		who := fmt.Sprintf("set %d", k)
		if s.Len() != len(model) {
			return fmt.Errorf("%s: Len %d, model holds %d", who, s.Len(), len(model))
		}
		got := map[int32]int{}
		chunks := 0
		for c := s.top; c != nil; c = c.next {
			if err := claim(c, who); err != nil {
				return err
			}
			used := sparseChunkLen
			if c == s.top {
				used = s.topLen()
			}
			for i, e := range c.ents {
				if i >= used {
					if e != (sparseEnt[int]{}) {
						return fmt.Errorf("%s: unused slot %d of chunk %p holds %+v", who, i, c, e)
					}
					continue
				}
				if _, dup := got[e.seq]; dup {
					return fmt.Errorf("%s: seq %d held twice", who, e.seq)
				}
				got[e.seq] = e.v
			}
			chunks++
		}
		if want := (len(model) + sparseChunkLen - 1) / sparseChunkLen; chunks != want {
			return fmt.Errorf("%s: %d entries in %d chunks, want %d", who, len(model), chunks, want)
		}
		if !maps.Equal(got, model) {
			return fmt.Errorf("%s: chunks hold %v, model %v", who, got, model)
		}
	}
	for c := range seen {
		if _, ok := owner[c]; !ok {
			return fmt.Errorf("chunk %p is neither in a set nor free", c)
		}
	}
	for c := range owner {
		seen[c] = true
	}
	return nil
}

// FuzzSparse runs scripts of Put, Get, Delete, Each and Release over
// several Sparses sharing one pool against maps. A step is two bytes:
// the low three bits of the first pick the operation, the rest the set;
// the second is the key. After every step checkSparses holds.
func FuzzSparse(f *testing.F) {
	const put, get, del, each, release = 0, 1, 2, 3, 4
	rec := func(op, s int, key byte) []byte { return []byte{byte(op | s<<3), key} }
	script := func(recs ...[]byte) []byte {
		var b []byte
		for _, r := range recs {
			b = append(b, r...)
		}
		return b
	}
	// Fill one set past two chunks, delete from the middle and the top,
	// then release it and fill another on its chunks.
	grow := []byte{}
	for i := 0; i < 20; i++ {
		grow = append(grow, rec(put, 0, byte(i))...)
	}
	f.Add(script(grow, rec(del, 0, 3), rec(del, 0, 19), rec(each, 0, 0), rec(get, 0, 7),
		rec(release, 0, 0), rec(put, 1, 1), rec(put, 1, 2), rec(get, 1, 2)))
	// Interleaved sets, overwrites, absent deletes, and a release of an
	// empty set.
	f.Add(script(rec(put, 0, 5), rec(put, 1, 5), rec(put, 0, 5), rec(del, 2, 9),
		rec(release, 2, 0), rec(put, 2, 9), rec(del, 0, 5), rec(del, 0, 5), rec(each, 1, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzSparseMaxScript {
			data = data[:fuzzSparseMaxScript]
		}
		var pool SparsePool[int]
		ss := make([]Sparse[int], fuzzSparseSets)
		models := make([]map[int32]int, fuzzSparseSets)
		for k := range ss {
			ss[k].SetPool(&pool)
			models[k] = map[int32]int{}
		}
		seen := map[*sparseChunk[int]]bool{}
		for step, b := 0, data; len(b) >= 2; step, b = step+1, b[2:] {
			k := int(b[0]>>3) % fuzzSparseSets
			s, model := &ss[k], models[k]
			seq := int32(b[1]) % fuzzSparseKeys
			switch int(b[0]&7) % 5 {
			case put:
				s.Put(seq, step+1)
				model[seq] = step + 1
			case get:
				v, ok := s.Get(seq)
				if mv, mok := model[seq]; v != mv || ok != mok {
					t.Fatalf("step %d: set %d Get(%d) = %d, %v, model %d, %v", step, k, seq, v, ok, mv, mok)
				}
			case del:
				s.Delete(seq)
				delete(model, seq)
			case each:
				got := map[int32]int{}
				s.Each(func(seq int32, v int) { got[seq] = v })
				if !maps.Equal(got, model) {
					t.Fatalf("step %d: set %d Each visited %v, model %v", step, k, got, model)
				}
			case release:
				s.Release()
				clear(model)
			}
			if err := checkSparses(&pool, ss, models, seen); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// TestSparsePoolReuse checks that a released record's chunks serve the
// next record: on a warm pool a record's whole life allocates nothing.
func TestSparsePoolReuse(t *testing.T) {
	var pool SparsePool[int]
	life := func() {
		var s Sparse[int]
		s.SetPool(&pool)
		for seq := int32(0); seq < 30; seq++ {
			s.Put(seq, int(seq))
		}
		for seq := int32(0); seq < 30; seq += 2 {
			s.Delete(seq)
		}
		s.Release()
	}
	life()
	if got := testing.AllocsPerRun(20, life); got != 0 {
		t.Errorf("%v allocs per record on a warm pool, want 0", got)
	}
}
