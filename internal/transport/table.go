package transport

import (
	"amrt/internal/netsim"
	"amrt/internal/slab"
)

// FlowTable holds at most one record per flow, indexed by flow ID. Every
// workload generator numbers its flows 1..N, so a slice does a map's job
// without hashing; IDs far apart would only waste the slots between
// them. The zero value is empty and allocates nothing before the first
// Put.
type FlowTable[T any] struct {
	recs []*T
	live int
}

// Get returns id's record, or nil when there is none — which is the
// answer for every ID outside the table, negative ones included.
func (t *FlowTable[T]) Get(id netsim.FlowID) *T {
	if uint64(id) < uint64(len(t.recs)) {
		return t.recs[id]
	}
	return nil
}

// Put makes r, which must not be nil, id's record, growing the table to
// reach id.
func (t *FlowTable[T]) Put(id netsim.FlowID, r *T) {
	if r == nil {
		panic("transport: FlowTable.Put of a nil record (use Drop)")
	}
	t.recs = grown(t.recs, int(id)+1)
	if t.recs[id] == nil {
		t.live++
	}
	t.recs[id] = r
}

// Drop forgets id's record and returns it, nil if there was none.
func (t *FlowTable[T]) Drop(id netsim.FlowID) *T {
	r := t.Get(id)
	if r != nil {
		t.recs[id] = nil
		t.live--
	}
	return r
}

// Len returns the number of records held.
func (t *FlowTable[T]) Len() int { return t.live }

// grown returns recs extended with empty slots to at least n. A move
// doubles the capacity in one allocation (append of a made slice takes
// two under the race detector); the slots past len are nil, as nothing
// shortens a table.
func grown[T any](recs []*T, n int) []*T {
	if n <= len(recs) {
		return recs
	}
	if n > cap(recs) {
		moved := make([]*T, len(recs), max(n, 2*cap(recs)))
		copy(moved, recs)
		recs = moved
	}
	return recs[:n]
}

// HostTable holds at most one record per host, indexed by node ID (a
// network numbers its nodes 0..n-1), built on first use and kept for the
// run. Records are carved from one array sized for every host of the
// kernel's shard, and the index from one sized for every node: a stack's
// per-host state costs two allocations per table, not one per host. The
// zero value is empty.
type HostTable[T any] struct {
	recs []*T
	slab slab.Slab[T]
}

// Get returns id's record, or nil when none has been built.
func (t *HostTable[T]) Get(id netsim.NodeID) *T {
	if uint32(id) < uint32(len(t.recs)) {
		return t.recs[id]
	}
	return nil
}

// Carve stores a zeroed record for host id of k's network, which must
// have none, and returns it for the caller to fill in.
func (t *HostTable[T]) Carve(k *Kernel, id netsim.NodeID) *T {
	if t.Get(id) != nil {
		panic("transport: HostTable.Carve of a host that has a record")
	}
	if t.recs == nil {
		t.recs = make([]*T, len(k.Net.Hosts())+len(k.Net.Switches()))
		t.slab.Reserve(k.hostsOwned())
	}
	t.recs = grown(t.recs, int(id)+1)
	r := t.slab.One()
	t.recs[id] = r
	return r
}
