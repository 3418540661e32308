package transport

import (
	"math/rand"
	"testing"

	"amrt/internal/netsim"
)

func TestFlowTable(t *testing.T) {
	var tb FlowTable[int]
	if tb.Get(1) != nil || tb.Get(0) != nil || tb.Len() != 0 {
		t.Error("an empty table holds something")
	}
	tb.Drop(1) // absent: no-op
	a, b, c := new(int), new(int), new(int)
	tb.Put(1, a)
	tb.Put(40, b) // far beyond the length
	if tb.Get(1) != a || tb.Get(40) != b || tb.Get(39) != nil || tb.Len() != 2 {
		t.Errorf("after two puts: Get(1) %p, Get(40) %p, Get(39) %p, Len %d", tb.Get(1), tb.Get(40), tb.Get(39), tb.Len())
	}
	tb.Put(1, c) // replaces, not a second record
	if tb.Get(1) != c || tb.Len() != 2 {
		t.Errorf("after replacing: Get(1) = %p, want %p; Len = %d, want 2", tb.Get(1), c, tb.Len())
	}
	slots := len(tb.recs)
	for _, id := range []netsim.FlowID{-1, -1 << 40, 41, 1 << 40} {
		if tb.Get(id) != nil {
			t.Errorf("Get(%d) found a record outside the table", id)
		}
		tb.Drop(id)
	}
	if len(tb.recs) != slots || tb.Len() != 2 {
		t.Errorf("lookups outside the table changed it: %d slots (were %d), Len %d", len(tb.recs), slots, tb.Len())
	}
	tb.Drop(1)
	tb.Drop(1)
	if tb.Get(1) != nil || tb.Get(40) != b || tb.Len() != 1 {
		t.Errorf("after dropping 1 twice: Get(1) %p, Get(40) %p, Len %d", tb.Get(1), tb.Get(40), tb.Len())
	}
}

// TestFlowTableAgainstMap drives a FlowTable and a map through the same
// 1000 random steps; after each they must agree on Len and on every
// lookup, inside the table and out.
func TestFlowTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb FlowTable[int]
	ref := map[netsim.FlowID]*int{}
	for step := 0; step < 1000; step++ {
		id := netsim.FlowID(rng.Intn(24)) // small key space: overwrites and hits are common
		switch rng.Intn(3) {
		case 0, 1:
			v := new(int)
			tb.Put(id, v)
			ref[id] = v
		case 2:
			tb.Drop(id)
			delete(ref, id)
		}
		if tb.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, map has %d", step, tb.Len(), len(ref))
		}
		for k := netsim.FlowID(-2); k < 26; k++ {
			if got := tb.Get(k); got != ref[k] {
				t.Fatalf("step %d: Get(%d) = %p, map says %p", step, k, got, ref[k])
			}
		}
	}
}

func TestHostTable(t *testing.T) {
	n, a, b := newKernelHosts()
	k := NewKernel(n, Config{})
	var tb HostTable[int]
	if tb.Get(0) != nil || tb.Get(7) != nil {
		t.Error("an empty table holds something")
	}
	rb := tb.Carve(&k, b.ID())
	if rb == nil || tb.Get(b.ID()) != rb || tb.Get(a.ID()) != nil {
		t.Errorf("host b: Get = %p, want the one record %p", tb.Get(b.ID()), rb)
	}
	if ra := tb.Carve(&k, a.ID()); ra == rb || tb.Get(a.ID()) != ra || tb.Get(b.ID()) != rb {
		t.Errorf("host a: records %p and %p", ra, rb)
	}
	slots := len(tb.recs)
	for _, id := range []netsim.NodeID{-1, 8, 1 << 20} {
		if tb.Get(id) != nil {
			t.Errorf("Get(%d) found a record outside the table", id)
		}
	}
	if len(tb.recs) != slots {
		t.Errorf("lookups grew the table: %d slots, were %d", len(tb.recs), slots)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("carving a second record for a host did not panic")
			}
		}()
		tb.Carve(&k, a.ID())
	}()
}

// TestHostTableAllocs: a table's records come from one array sized for
// the hosts of the kernel's shard, and its index from one sized for the
// nodes, however many hosts there are.
func TestHostTableAllocs(t *testing.T) {
	for _, hosts := range []int{4, 64} {
		n := netsim.New()
		for i := 0; i < hosts; i++ {
			n.NewHost("h")
		}
		k := NewKernel(n, Config{})
		got := testing.AllocsPerRun(10, func() {
			var tb HostTable[[4]int64]
			for _, h := range n.Hosts() {
				tb.Carve(&k, h.ID())
			}
		})
		if got != 2 {
			t.Errorf("%d hosts: %.0f allocations per table, want 2", hosts, got)
		}
	}
}

// lookupStack stands in for a stack: a kernel, a receiver table and the
// method that builds a record.
type lookupStack struct {
	Kernel
	recs  Records[lookupRec, *lookupRec]
	built int
}

type lookupRec struct {
	Record[lookupRec]
	f *Flow
}

func (s *lookupStack) build(r *lookupRec, f *Flow) {
	s.built++
	r.f = f
}

func (s *lookupStack) lookup(id netsim.FlowID) *lookupRec {
	return Receiver(&s.Kernel, &s.recs, id, s.build)
}

// TestReceiverLookupAllocs: the lookup a stack does for every packet
// allocates nothing when it finds the record, and nothing — no record,
// no event — when the flow is finished, unknown or out of range. The
// build function is a method value at every call site, so this also
// holds the lookup to not letting it escape.
func TestReceiverLookupAllocs(t *testing.T) {
	n, a, b := newLifecycleNet()
	s := &lookupStack{Kernel: NewKernel(n, Config{RTT: testRTT})}
	live := s.NewFlow(1, a, b, 3000, 0)
	done := s.NewFlow(2, a, b, 3000, 0)
	s.NewFlow(3, a, b, 3000, 0)
	done.Done = true

	r := s.lookup(live.ID)
	if r == nil || s.built != 1 || s.recs.Len() != 1 {
		t.Fatalf("first packet: record %p, %d built, %d stored; want one of each", r, s.built, s.recs.Len())
	}
	if len(s.recs.recs) != len(s.flows.recs) {
		t.Errorf("the first store sized the table to %d slots, want the kernel's %d", len(s.recs.recs), len(s.flows.recs))
	}
	if got := testing.AllocsPerRun(100, func() {
		if s.lookup(live.ID) != r {
			t.Fatal("a later packet found another record")
		}
	}); got != 0 {
		t.Errorf("hit: %.1f allocs per packet, want 0", got)
	}
	pending := n.Engine.Pending()
	for _, id := range []netsim.FlowID{done.ID, 99, 1 << 40, 0, -1} {
		if got := testing.AllocsPerRun(100, func() {
			if s.lookup(id) != nil {
				t.Fatalf("flow %d: a record for a finished or unknown flow", id)
			}
		}); got != 0 {
			t.Errorf("flow %d: %.1f allocs per packet, want 0", id, got)
		}
	}
	if s.built != 1 || s.recs.Len() != 1 || n.Engine.Pending() != pending {
		t.Errorf("misses built %d records, stored %d, scheduled %d events; want none",
			s.built-1, s.recs.Len()-1, n.Engine.Pending()-pending)
	}
}
