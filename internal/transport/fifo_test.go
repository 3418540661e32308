package transport

import (
	"fmt"
	"testing"
)

// fuzzFIFOQueues is how many queues a FuzzFIFO script drives over one
// shared pool; fuzzFIFOMaxScript bounds a script's length.
const fuzzFIFOQueues, fuzzFIFOMaxScript = 3, 1 << 12

// checkFIFOs holds the pool's invariants over queues that share it: each
// queue's chain carries exactly its model's values in order, every block
// is in one chain or on the free list and never both, no block seen
// before (seen, which it extends) has gone from both, and every slot
// outside a queue's live range — popped, never written, or on a free
// block — is zero, so nothing is pinned.
func checkFIFOs(pool *FIFOPool[int], qs []FIFO[int], models [][]int, seen map[*fifoBlock[int]]bool) error {
	owner := map[*fifoBlock[int]]string{}
	claim := func(b *fifoBlock[int], who string) error {
		if prev, ok := owner[b]; ok {
			return fmt.Errorf("block %p is in %s and in %s", b, prev, who)
		}
		owner[b] = who
		if n := len(b.ents); n < fifoBlockMin || n > fifoBlockMax || cap(b.ents) != n {
			return fmt.Errorf("block %p in %s has %d entries (cap %d)", b, who, n, cap(b.ents))
		}
		return nil
	}
	for b := pool.blocks.Top(); b != nil; b = b.next {
		if err := claim(b, "the free list"); err != nil {
			return err
		}
		for i, v := range b.ents {
			if v != 0 {
				return fmt.Errorf("free block %p holds %d at %d", b, v, i)
			}
		}
	}
	for k := range qs {
		q, model := &qs[k], models[k]
		who := fmt.Sprintf("queue %d", k)
		if q.Len() != len(model) {
			return fmt.Errorf("%s: Len %d, model holds %d", who, q.Len(), len(model))
		}
		if q.head == nil {
			// Empty: at most the one block it kept, zeroed.
			if len(model) != 0 {
				return fmt.Errorf("%s: no head block, %d modelled", who, len(model))
			}
			if b := q.tail; b != nil {
				if err := claim(b, who); err != nil {
					return err
				}
				if b.next != nil {
					return fmt.Errorf("%s: kept block links on", who)
				}
				for i, v := range b.ents {
					if v != 0 {
						return fmt.Errorf("%s: kept block %p holds %d at %d", who, b, v, i)
					}
				}
			}
			continue
		}
		var got []int
		for b := q.head; b != nil; b = b.next {
			if err := claim(b, who); err != nil {
				return err
			}
			lo, hi := 0, len(b.ents)
			if b == q.head {
				lo = q.hi
			}
			if b == q.tail {
				hi = q.ti
				if b.next != nil {
					return fmt.Errorf("%s: tail block links on", who)
				}
			}
			for i, v := range b.ents {
				if i >= lo && i < hi {
					got = append(got, v)
				} else if v != 0 {
					return fmt.Errorf("%s: dead slot %d of block %p holds %d", who, i, b, v)
				}
			}
		}
		if len(got) != len(model) {
			return fmt.Errorf("%s: chain holds %d values, model %d", who, len(got), len(model))
		}
		for i := range got {
			if got[i] != model[i] {
				return fmt.Errorf("%s: entry %d is %d, model %d", who, i, got[i], model[i])
			}
		}
	}
	for b := range seen {
		if _, ok := owner[b]; !ok {
			return fmt.Errorf("block %p is neither in a queue nor free", b)
		}
	}
	for b := range owner {
		seen[b] = true
	}
	return nil
}

// FuzzFIFO runs scripts of push, pop, peek and reset steps over several
// FIFOs sharing one pool against slice models. A step is two bytes: the
// low two bits of the first pick the operation, the rest the queue; the
// second is a burst length, so a push or pop of up to 256 entries
// crosses block boundaries and growth steps in one step. After every
// step checkFIFOs holds.
func FuzzFIFO(f *testing.F) {
	const push, pop, peek, reset = 0, 1, 2, 3
	rec := func(op, q int, n byte) []byte { return []byte{byte(op | q<<2), n} }
	script := func(recs ...[]byte) []byte {
		var b []byte
		for _, r := range recs {
			b = append(b, r...)
		}
		return b
	}
	// One queue grows through every block size, drains, and grows again
	// on the recycled blocks.
	f.Add(script(rec(push, 0, 255), rec(push, 0, 255), rec(peek, 0, 0), rec(pop, 0, 255),
		rec(pop, 0, 255), rec(push, 0, 40), rec(pop, 0, 3)))
	// Three queues interleave on one pool; one is reset mid-way.
	f.Add(script(rec(push, 0, 5), rec(push, 1, 9), rec(push, 2, 130), rec(pop, 0, 2),
		rec(reset, 2, 0), rec(push, 1, 200), rec(pop, 1, 100), rec(push, 0, 255),
		rec(peek, 1, 0), rec(pop, 2, 1), rec(pop, 0, 255)))
	// Hover across a block boundary: push one, pop one, many times.
	hover := script(rec(push, 1, 6))
	for i := 0; i < 40; i++ {
		hover = append(hover, rec(pop, 1, 0)...)
		hover = append(hover, rec(push, 1, 0)...)
	}
	f.Add(hover)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzFIFOMaxScript {
			data = data[:fuzzFIFOMaxScript]
		}
		var pool FIFOPool[int]
		qs := make([]FIFO[int], fuzzFIFOQueues)
		models := make([][]int, fuzzFIFOQueues)
		for k := range qs {
			qs[k].SetPool(&pool)
		}
		seen := map[*fifoBlock[int]]bool{}
		next := 1 // values are nonzero, so a zero slot is a cleared one
		for step, b := 0, data; len(b) >= 2; step, b = step+1, b[2:] {
			k := int(b[0]>>2) % fuzzFIFOQueues
			q, n := &qs[k], int(b[1])+1
			switch b[0] & 3 {
			case push:
				for ; n > 0; n-- {
					q.Push(next)
					models[k] = append(models[k], next)
					next++
				}
			case pop:
				for ; n > 0 && len(models[k]) > 0; n-- {
					if got := q.Pop(); got != models[k][0] {
						t.Fatalf("step %d: queue %d popped %d, model %d", step, k, got, models[k][0])
					}
					models[k] = models[k][1:]
				}
			case peek:
				if len(models[k]) > 0 {
					if got := q.Peek(); got != models[k][0] {
						t.Fatalf("step %d: queue %d peeked %d, model %d", step, k, got, models[k][0])
					}
				}
			case reset:
				q.Reset()
				models[k] = nil
			}
			if err := checkFIFOs(&pool, qs, models, seen); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	})
}

// TestFIFOSharedPoolReuse checks that queues sharing a pool reuse each
// other's blocks: once one queue has drained, another of the same length
// allocates nothing.
func TestFIFOSharedPoolReuse(t *testing.T) {
	var pool FIFOPool[int]
	var a, b FIFO[int]
	a.SetPool(&pool)
	b.SetPool(&pool)
	fill := func(q *FIFO[int]) {
		for i := 1; i <= 1000; i++ {
			q.Push(i)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	fill(&a)
	if got := testing.AllocsPerRun(20, func() { fill(&b) }); got != 0 {
		t.Errorf("%v allocs for a queue of 1000 on a warm shared pool, want 0", got)
	}
}
