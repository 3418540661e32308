package transport

import "testing"

// FuzzWordPool runs scripts of get and put steps against a WordPool and
// a model of what it holds. A step is two bytes: the low bit of the
// first picks the operation, the rest which held array a put returns
// (its index, modulo how many are held); the second is the length a get
// asks for, 1..256 words. Every array a get hands out must be one no
// one else holds, at least as long as asked, zero in the words asked
// for (the last holder scribbled over all of its own), and either the
// shortest free array long enough or, with none, a fresh one of exactly
// the length asked.
func FuzzWordPool(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 1, 0, 0, 5, 1, 0, 1, 0, 0, 30, 0, 20})
	f.Add([]byte{0, 200, 0, 1, 0, 100, 1, 2, 1, 0, 0, 50, 0, 150, 0, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p WordPool
		var held [][]uint64
		free := map[*uint64]int{} // the model's free arrays: first word → length
		for step, b := 0, data; len(b) >= 2 && step < 500; step, b = step+1, b[2:] {
			if b[0]&1 == 1 {
				if len(held) == 0 {
					continue
				}
				i := int(b[0]>>1) % len(held)
				w := held[i]
				held = append(held[:i], held[i+1:]...)
				for j := range w {
					w[j] = ^uint64(j) // the holder leaves it dirty
				}
				p.put(w)
				free[&w[0]] = len(w)
				continue
			}
			n := int(b[1]) + 1
			best := -1 // the model's best fit, -1 for none
			for _, l := range free {
				if l >= n && (best < 0 || l < best) {
					best = l
				}
			}
			w := p.get(n)
			switch l, wasFree := free[&w[0]]; {
			case len(w) < n:
				t.Fatalf("step %d: get(%d) returned %d words", step, n, len(w))
			case best < 0 && (wasFree || len(w) != n):
				t.Fatalf("step %d: get(%d) with nothing long enough free returned %d words (free before: %v)", step, n, len(w), wasFree)
			case best >= 0 && (!wasFree || l != best):
				t.Fatalf("step %d: get(%d) returned %d words (free before: %v), want the best fit of %d", step, n, len(w), wasFree, best)
			}
			for j, x := range w[:n] {
				if x != 0 {
					t.Fatalf("step %d: word %d of a reused array is %#x", step, j, x)
				}
			}
			for _, h := range held {
				if &h[0] == &w[0] {
					t.Fatalf("step %d: an array of %d words handed out twice", step, len(w))
				}
			}
			delete(free, &w[0])
			held = append(held, w)
			if len(p.free) != len(free) {
				t.Fatalf("step %d: the pool holds %d free arrays, model %d", step, len(p.free), len(free))
			}
		}
	})
}

// TestWordPoolAllocs: once an array of each length is free, a get and a
// put allocate nothing.
func TestWordPoolAllocs(t *testing.T) {
	var p WordPool
	a, b := p.get(10), p.get(40)
	p.put(a)
	p.put(b)
	if got := testing.AllocsPerRun(100, func() {
		x, y := p.get(40), p.get(7)
		p.put(y)
		p.put(x)
	}); got != 0 {
		t.Errorf("a warm get and put: %.1f allocs, want 0", got)
	}
}
