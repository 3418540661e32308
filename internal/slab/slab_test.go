package slab

import (
	"testing"
	"unsafe"
)

// node is the value FuzzSlab carves and recycles: a mark the script
// writes when the value is handed out, and the link a Pool threads its
// free chain through.
type node struct {
	mark uint32
	next *node
}

func nodeLink(n *node) **node { return &n.next }

// slabModel is the chunk rule as the Slab doc states it: what a script
// expects the slab to hold and which chunks it expects it to make.
type slabModel struct {
	spare, left, most, last int // values of the current chunk not yet taken; Reserve's, Bound's and the last chunk's counts
	min, max                int
	chunks                  []int // the lengths of the chunks made, in order
}

func (m *slabModel) reserve(n int) { m.left = max(m.left, m.spare) + n }

// take books a Take(k) and reports whether it starts a chunk.
func (m *slabModel) take(k int) (fresh bool) {
	if m.spare < k {
		n := m.left // a reservation pending: exactly its values
		if n < k {
			n = min(max(2*m.last, m.min), m.max)
			if m.most > 0 {
				n = min(n, m.most)
			}
			n = max(n, k)
		}
		m.last = min(n, m.max)
		m.chunks = append(m.chunks, n)
		m.spare, fresh = n, true
	}
	m.spare -= k
	m.left, m.most = max(m.left-k, 0), max(m.most-k, 0)
	return fresh
}

// Script operations: a step is two bytes, the first picking the
// operation, the second its argument.
const (
	opTake = iota
	opOne
	opReserve
	opBound
	opPop
	opPut
	numOps
)

// fuzzSlabMaxSteps bounds a script.
const fuzzSlabMaxSteps = 400

// slabScript runs one script on p. With m non-nil it checks every step
// against the model and returns what went wrong; without, it only
// replays the steps, allocating nothing of its own.
type slabScript struct {
	p      *Pool[node]
	m      *slabModel
	live   []*node // values Pop or One handed out and Put has not taken back
	chain  []*node // the model of the free chain, top last
	marked []*node // every value handed out, in order; its mark is its index + 1
	next   uintptr // the address of the current chunk's next value, when checked
}

func (r *slabScript) step(op, arg byte) string {
	p, m := r.p, r.m
	switch op {
	case opTake, opOne:
		k := 1
		if op == opTake {
			k = 1 + int(arg)%24
			if arg >= 240 {
				k = 100 + int(arg) // past any maximum the script sets
			}
		}
		var span []node
		if op == opTake {
			span = p.Take(k)
		} else {
			span = unsafe.Slice(p.One(), 1)
		}
		if m != nil {
			if msg := r.checkSpan(span, k); msg != "" {
				return msg
			}
		}
		r.mark(span)
	case opReserve:
		p.Reserve(int(arg) % 48)
		if m != nil {
			m.reserve(int(arg) % 48)
		}
	case opBound:
		p.Bound(int(arg) % 32)
		if m != nil {
			m.most = int(arg) % 32
		}
	case opPop:
		v := p.Pop(nodeLink)
		if m != nil {
			if n := len(r.chain); n == 0 && v != nil {
				return "Pop returned a value from an empty chain"
			} else if n > 0 {
				if want := r.chain[n-1]; v != want {
					return "Pop did not return the value put last"
				}
				r.chain = r.chain[:n-1]
				if v.next != nil {
					return "Pop left a link on the value it returned"
				}
			}
		}
		if v == nil { // the owner carves instead
			v = p.One()
			if m != nil {
				if msg := r.checkSpan(unsafe.Slice(v, 1), 1); msg != "" {
					return msg
				}
			}
			r.mark(unsafe.Slice(v, 1))
		}
		r.live = append(r.live, v)
	case opPut:
		if len(r.live) == 0 {
			return ""
		}
		i := int(arg) % len(r.live)
		v := r.live[i]
		r.live[i] = r.live[len(r.live)-1]
		r.live = r.live[:len(r.live)-1]
		p.Put(v, nodeLink)
		if m != nil {
			r.chain = append(r.chain, v)
		}
	}
	if m != nil {
		if top := p.Top(); (len(r.chain) == 0) != (top == nil) || top != nil && top != r.chain[len(r.chain)-1] {
			return "Top is not the value put last"
		}
	}
	return ""
}

// checkSpan holds a span of k the slab handed out to the model: zeroed,
// capped at its length, from the next free values of the current chunk
// or from a new chunk of the rule's length.
func (r *slabScript) checkSpan(span []node, k int) string {
	m := r.m
	if len(span) != k || cap(span) != k {
		return "span has the wrong length or capacity"
	}
	for i := range span {
		if span[i] != (node{}) {
			return "span is not zeroed"
		}
	}
	if m.take(k) {
		if got, want := k+len(r.p.free), m.chunks[len(m.chunks)-1]; got != want {
			return "chunk length breaks the rule"
		}
	} else if uintptr(unsafe.Pointer(&span[0])) != r.next {
		return "span does not follow the last one in its chunk"
	}
	r.next = uintptr(unsafe.Pointer(&span[0])) + uintptr(k)*unsafe.Sizeof(node{})
	return ""
}

// mark writes each value's index in marked, so a later span that
// overlapped it would not come back zeroed, and the script's last check
// would find the mark gone.
func (r *slabScript) mark(span []node) {
	for i := range span {
		if r.m != nil {
			r.marked = append(r.marked, &span[i])
			span[i].mark = uint32(len(r.marked))
		} else {
			span[i].mark = 1
		}
	}
}

// FuzzSlab drives a Pool — its Slab's Take, One, Reserve and Bound, and
// its chain's Pop and Put — with a script, against a model: every span
// is zeroed, capped at its length and disjoint from every other value
// handed out; spans of one chunk follow each other; each chunk's length
// follows the rule (an exact reservation, then doubling from the
// minimum to the maximum, within Bound); Pop returns the value put last;
// and a replay of the script costs one allocation per chunk the model
// made. The first two bytes pick the slab's bounds (zero: the zero
// value's 2 and 64).
func FuzzSlab(f *testing.F) {
	f.Add([]byte{0, 0, opTake, 1, opTake, 3, opOne, 0, opTake, 30, opTake, 250})
	f.Add([]byte{8, 0, opReserve, 40, opTake, 5, opTake, 20, opTake, 20, opOne, 0, opTake, 7})
	f.Add([]byte{1, 9, opBound, 3, opPop, 0, opPop, 0, opPut, 0, opPop, 0, opPop, 0, opPop, 0, opPut, 1, opPut, 0, opPop, 0})
	f.Add([]byte{127, 1, opTake, 2, opReserve, 0, opTake, 2, opReserve, 10, opTake, 12, opTake, 1})
	// A reservation made with a chunk's tail still spare comes after it.
	f.Add([]byte{0, 0, opTake, 0, opReserve, 5, opTake, 0, opTake, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		script := data[2:]
		if len(script) > 2*fuzzSlabMaxSteps {
			script = script[:2*fuzzSlabMaxSteps]
		}
		lo, hi := 2, 64
		sized := data[0] != 0
		if sized {
			lo = 1 + int(data[0])%128
			hi = lo + int(data[1])%256
		}
		fresh := func(p *Pool[node]) {
			*p = Pool[node]{}
			if sized {
				p.Slab = Sized[node](lo, hi)
			}
		}
		var p Pool[node]
		fresh(&p)
		r := &slabScript{p: &p, m: &slabModel{min: lo, max: hi}}
		for i := 0; i+1 < len(script); i += 2 {
			if msg := r.step(script[i]%numOps, script[i+1]); msg != "" {
				t.Fatalf("step %d (op %d, arg %d): %s", i/2, script[i]%numOps, script[i+1], msg)
			}
		}
		for i, v := range r.marked {
			if v.mark != uint32(i+1) {
				t.Fatalf("value %d handed out was overwritten by a later span", i)
			}
		}
		pools := make([]Pool[node], 2) // AllocsPerRun adds a warm-up run
		live := make([]*node, 0, fuzzSlabMaxSteps)
		run := 0
		allocs := testing.AllocsPerRun(1, func() {
			fresh(&pools[run])
			replay := &slabScript{p: &pools[run], live: live[:0]}
			run++
			for i := 0; i+1 < len(script); i += 2 {
				replay.step(script[i]%numOps, script[i+1])
			}
		})
		if int(allocs) != len(r.m.chunks) {
			t.Fatalf("replay allocated %v times, the model made %d chunks", allocs, len(r.m.chunks))
		}
	})
}
