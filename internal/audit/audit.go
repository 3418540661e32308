// Package audit is the runtime invariant checker: an engine-attached
// auditor that repeatedly verifies conservation and budget invariants
// the simulator must uphold regardless of protocol, workload, or fault
// plan, and fails fast with a forensic dump when one breaks.
//
// Invariants checked:
//
//  1. Packet conservation: every packet injected through Host.Send is
//     delivered, dropped, parked in some port queue, or on a wire —
//     Injected == Delivered + Dropped + Σ queue.Len() + OnWire. On one
//     shard of a partitioned network the identity gains the cross-shard
//     custody terms: Injected + PipedIn == Delivered + Dropped +
//     Σ queue.Len() + OnWire + PipedOut.
//  2. Per-port conservation: every packet a port's queue accepted was
//     transmitted, flushed, is still queued, or is serializing —
//     Enqueued == TxPackets + Flushed + queue.Len() + (busy ? 1 : 0).
//  3. Queue bounds: no bounded queue holds more packets than its
//     configured capacity (netsim.BoundedQueue).
//  4. Grant budget: a receiver-driven stack never builds more data
//     packets than its control traffic authorized —
//     DataPacketsSent ≤ GrantAuthority (GrantAccounting; stacks that do
//     not implement it, e.g. sender-driven DCTCP, are skipped). This
//     ledger spans shards (senders spend on the source shard, receivers
//     grant on the destination shard), so per-shard auditors skip it;
//     on sharded runs the experiment runner checks it globally at
//     window barriers and once after the run.
//  5. Credit pool: a stack with a bounded per-receiver credit pool
//     (SIRD) never holds more outstanding scheduled credit than the
//     pool bound, and never drives a pool negative —
//     0 ≤ outstanding ≤ bound (CreditAccounting). Pool state is local
//     to the receiving host's shard, so per-shard auditors check it too.
//
// All invariants hold between events, so the auditor runs as an
// ordinary engine event: its owner ticks Check in the engine's late
// band. The counters it reads are plain int64 increments on paths that
// already touch hot state; with no auditor attached the accounting costs
// no allocations and no branches beyond the increments themselves.
package audit

import (
	"fmt"
	"sort"
	"strings"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/transport"
)

// GrantAccounting is implemented by receiver-driven stacks that can
// report their grant-budget ledger: how many data packets the senders
// built versus how many the receivers' control traffic (plus the
// unsolicited allowance) authorized.
type GrantAccounting interface {
	// DataPacketsSent returns data packets built so far (the spend side).
	DataPacketsSent() int64
	// GrantAuthority returns data packets authorized so far (the budget
	// side); the invariant is DataPacketsSent ≤ GrantAuthority.
	GrantAuthority() int64
}

// CreditAccounting is implemented by stacks that allocate scheduled
// credit from a bounded per-receiver pool (SIRD). The ledger is local
// to the receiving host, so unlike the grant budget it is sound on
// per-shard auditors as well as whole-network ones.
type CreditAccounting interface {
	// CreditLedger returns the outstanding scheduled credit and the pool
	// bound of the most loaded pool (or a negative pool, if the
	// accounting went wrong); the invariant is 0 ≤ outstanding ≤ bound.
	CreditLedger() (outstanding, bound int64)
}

// FlowLister is implemented by stacks whose flows the forensic dump
// should enumerate (every transport.Kernel embedder satisfies it).
type FlowLister interface {
	// OrderedFlows returns the flows in creation order.
	OrderedFlows() []*transport.Flow
}

// Violation describes one failed invariant, with enough forensics to
// debug it after the fact: which rule broke, the arithmetic that broke
// it, and a dump of flow and queue state at the moment of detection.
type Violation struct {
	// At is the virtual time of the failed check.
	At sim.Time
	// Rule names the invariant family, e.g. "conservation",
	// "port-conservation", "queue-bound", "grant-budget".
	Rule string
	// Detail is the failed arithmetic, naming the offending flow, port,
	// or queue.
	Detail string
	// Dump is the forensic state dump (flows, queue occupancies, pending
	// timer count).
	Dump string
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("audit: %s violated at %v: %s", v.Rule, v.At, v.Detail)
}

// Auditor attaches invariant checks to a network, or — built with
// NewShard — to one engine shard of a partitioned network. Create with
// New or NewShard and call Check: from a periodic tick (the experiment
// runner's, through sim.Engine.Every) and once after the run.
type Auditor struct {
	// Net is the audited network.
	Net *netsim.Network
	// Shard, when non-nil, scopes the auditor to that shard: its ports
	// only, the per-shard conservation identity, and no grant-budget
	// check. Checks then run on the shard's goroutine against state the
	// shard owns, so a sharded run can audit every window without
	// cross-shard reads.
	Shard *netsim.Shard
	// Stack, if non-nil, is probed for GrantAccounting (invariant 4,
	// whole-network auditors only) and FlowLister (forensic dump
	// enumeration).
	Stack any
	// OnViolation, if non-nil, receives each violation instead of the
	// default panic. The auditor keeps checking after a reported
	// violation; tests use this to assert on seeded failures.
	OnViolation func(*Violation)

	// Checks counts invariant sweeps; Violations counts failures.
	Checks     int64
	Violations int64

	ports []*netsim.Port
	eng   *sim.Engine
}

// New builds an auditor over the network's current topology (ports are
// enumerated once, in creation order — attach after the topology is
// built). stack may be nil. On a partitioned network a whole-network
// auditor is only sound at window barriers or after the run; use
// NewShard for checks that run during windows.
func New(net *netsim.Network, stack any) *Auditor {
	a := &Auditor{Net: net, Stack: stack, eng: net.Engine}
	for _, h := range net.Hosts() {
		if nic := h.NIC(); nic != nil {
			a.ports = append(a.ports, nic)
		}
	}
	for _, sw := range net.Switches() {
		a.ports = append(a.ports, sw.Ports()...)
	}
	return a
}

// NewShard builds an auditor over one shard's slice of the topology,
// checking the per-shard conservation identity. stack should be the
// shard's own protocol instance (or nil); invariant 4 is skipped — its
// ledger spans shards.
func NewShard(sh *netsim.Shard, stack any) *Auditor {
	net := sh.Network()
	a := &Auditor{Net: net, Shard: sh, Stack: stack, eng: sh.Eng()}
	for _, h := range net.Hosts() {
		if nic := h.NIC(); nic != nil && sh.Owns(h) {
			a.ports = append(a.ports, nic)
		}
	}
	for _, sw := range net.Switches() {
		if sh.Owns(sw) {
			a.ports = append(a.ports, sw.Ports()...)
		}
	}
	return a
}

// Check runs every invariant once, returning the first violation found
// (nil if all hold). Without an OnViolation hook a violation panics
// with the full forensic dump — fail fast, the simulation state is
// corrupt.
func (a *Auditor) Check() *Violation {
	a.Checks++
	v := a.check()
	if v == nil {
		return nil
	}
	a.Violations++
	v.Dump = a.dump()
	if a.OnViolation != nil {
		a.OnViolation(v)
		return v
	}
	panic(v.Error() + "\n" + v.Dump)
}

func (a *Auditor) check() *Violation {
	now := a.eng.Now()

	// 2 + 3: per-port conservation and queue bounds (computes the scoped
	// queued sum for invariant 1 on the way).
	var queued int64
	for _, p := range a.ports {
		q := p.Queue()
		n := int64(q.Len())
		queued += n
		var busy int64
		if p.Busy() { // before TxPackets is read: it books a transmission that has ended
			busy = 1
		}
		if got := p.TxPackets + p.Flushed + n + busy; p.Enqueued != got {
			return &Violation{At: now, Rule: "port-conservation", Detail: fmt.Sprintf(
				"port %s: enqueued %d != tx %d + flushed %d + queued %d + busy %d",
				p.Name(), p.Enqueued, p.TxPackets, p.Flushed, n, busy)}
		}
		if b, ok := q.(netsim.BoundedQueue); ok {
			if cap := b.CapPackets(); cap > 0 && q.Len() > cap {
				return &Violation{At: now, Rule: "queue-bound", Detail: fmt.Sprintf(
					"port %s: queue holds %d packets, cap %d", p.Name(), q.Len(), cap)}
			}
		}
	}

	// 5: credit pool, for stacks that expose one. Pool state lives on
	// the receiving host's shard, so the check is sound for per-shard
	// auditors too (a shard's instance only pools for hosts it owns).
	if ca, ok := a.Stack.(CreditAccounting); ok {
		if out, bound := ca.CreditLedger(); out < 0 || out > bound {
			return &Violation{At: now, Rule: "credit-pool", Detail: fmt.Sprintf(
				"outstanding scheduled credit %d outside pool bound [0, %d]", out, bound)}
		}
	}

	// 1: packet conservation (per-shard identity with custody terms when
	// scoped, the network-wide identity otherwise).
	if s := a.Shard; s != nil {
		if got := s.Delivered + s.Dropped + queued + s.OnWire + s.PipedOut; s.Injected+s.PipedIn != got {
			return &Violation{At: now, Rule: "conservation", Detail: fmt.Sprintf(
				"shard %d: injected %d + piped-in %d != delivered %d + dropped %d + queued %d + on-wire %d + piped-out %d",
				s.Index(), s.Injected, s.PipedIn, s.Delivered, s.Dropped, queued, s.OnWire, s.PipedOut)}
		}
	} else {
		n := a.Net
		if got := n.Delivered() + n.Dropped() + queued + n.OnWire(); n.Injected() != got {
			return &Violation{At: now, Rule: "conservation", Detail: fmt.Sprintf(
				"injected %d != delivered %d + dropped %d + queued %d + on-wire %d",
				n.Injected(), n.Delivered(), n.Dropped(), queued, n.OnWire())}
		}

		// 4: grant budget, for stacks that expose their ledger (skipped on
		// shard-scoped auditors — the ledger spans shards).
		if ga, ok := a.Stack.(GrantAccounting); ok {
			if sent, auth := ga.DataPacketsSent(), ga.GrantAuthority(); sent > auth {
				return &Violation{At: now, Rule: "grant-budget", Detail: fmt.Sprintf(
					"data packets sent %d exceed grant authority %d (+%d unauthorized)",
					sent, auth, sent-auth)}
			}
		}
	}
	return nil
}

// dump renders the forensic state snapshot: flows sorted by ID, port
// occupancies in creation order, and the pending event count.
func (a *Auditor) dump() string {
	var b strings.Builder
	if fl, ok := a.Stack.(FlowLister); ok {
		flows := append([]*transport.Flow(nil), fl.OrderedFlows()...)
		sort.Slice(flows, func(i, j int) bool { return flows[i].ID < flows[j].ID })
		fmt.Fprintf(&b, "flows (%d):\n", len(flows))
		for _, f := range flows {
			fmt.Fprintf(&b, "  %v done=%t outcome=%v last-progress=%v\n",
				f, f.Done, f.Outcome, f.LastProgress)
		}
	}
	fmt.Fprintf(&b, "ports (%d):\n", len(a.ports))
	for _, p := range a.ports {
		q := p.Queue()
		busy := p.Busy() // first: it books a transmission that has ended into TxPackets
		fmt.Fprintf(&b, "  %s: len=%d bytes=%d enqueued=%d tx=%d flushed=%d drops=%d busy=%t down=%t\n",
			p.Name(), q.Len(), q.Bytes(), p.Enqueued, p.TxPackets, p.Flushed, p.Drops, busy, p.AdminDown())
	}
	fmt.Fprintf(&b, "pending events: %d\n", a.eng.Pending())
	return b.String()
}
