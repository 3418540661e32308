package transport

import (
	"math/rand"
	"slices"
	"testing"
)

// listRec is a record for the list tests.
type listRec struct {
	Link[listRec]
	id int
}

// TestListAgainstDeleteFunc drives a List and the slice it replaced —
// append to add, slices.DeleteFunc to remove — with the same random
// adds and removes, and after every step walks the list both ways
// against the slice.
func TestListAgainstDeleteFunc(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]listRec, 64)
		for i := range recs {
			recs[i].id = i
		}
		var l List[listRec, *listRec]
		var model []*listRec
		on := map[*listRec]bool{}
		for step := 0; step < 2000; step++ {
			r := &recs[rng.Intn(len(recs))]
			if on[r] {
				l.Remove(r)
				model = slices.DeleteFunc(model, func(x *listRec) bool { return x == r })
			} else {
				l.PushBack(r)
				model = append(model, r)
			}
			on[r] = !on[r]
			var fwd []*listRec
			for x := l.Front(); x != nil; x = l.Next(x) {
				fwd = append(fwd, x)
			}
			var back []*listRec
			for x := l.tail; x != nil; x = x.prev {
				back = append(back, x)
			}
			slices.Reverse(back)
			if !slices.Equal(fwd, model) || !slices.Equal(back, model) {
				t.Fatalf("seed %d step %d: list %v (backwards %v), model %v", seed, step, ids(fwd), ids(back), ids(model))
			}
			if r.prev != nil || r.next != nil {
				if !on[r] {
					t.Fatalf("seed %d step %d: removed record %d keeps its links", seed, step, r.id)
				}
			}
		}
	}
}

func ids(rs []*listRec) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.id
	}
	return out
}

// TestListAllocs: adding and removing records allocates nothing.
func TestListAllocs(t *testing.T) {
	recs := make([]listRec, 8)
	var l List[listRec, *listRec]
	if got := testing.AllocsPerRun(100, func() {
		for i := range recs {
			l.PushBack(&recs[i])
		}
		for i := range recs {
			l.Remove(&recs[(i*5)%len(recs)])
		}
	}); got != 0 || l.Front() != nil {
		t.Errorf("%.1f allocs, front %p after removing all, want 0 and nil", got, l.Front())
	}
}
