// Package transport provides the machinery shared by all six protocol
// stacks (pHost, Homa, NDP, AMRT, SIRD and the DCTCP contrast): flow
// bookkeeping, packetization, the per-host packet dispatcher,
// received-sequence bitmaps, completion recording, and the flow
// lifecycle — registration, start, RTS announce chain, host-crash pass,
// receiver check timer — that each stack plugs its Hooks into.
package transport

import (
	"fmt"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// Outcome classifies how a flow's life ended (or hasn't yet).
type Outcome uint8

// Flow outcomes, in escalating order of concern. Stalled is advisory —
// the liveness watchdog sets it when a flow makes no forward progress
// for many RTTs with its path administratively up — and a late
// completion overwrites it back to Completed.
const (
	OutcomeRunning Outcome = iota
	OutcomeCompleted
	OutcomeStalled
	OutcomeKilledByCrash
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeRunning:
		return "running"
	case OutcomeCompleted:
		return "completed"
	case OutcomeStalled:
		return "stalled"
	case OutcomeKilledByCrash:
		return "killed-by-crash"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Flow is one message transfer from Src to Dst.
type Flow struct {
	ID    netsim.FlowID
	Src   *netsim.Host
	Dst   *netsim.Host
	Size  int64 // payload bytes
	NPkts int32 // number of data packets (ceil(Size/MSS))

	Start sim.Time // when the sender begins
	End   sim.Time // when the receiver has every packet
	Done  bool

	// Outcome records how the flow ended: Completed via Kernel.Complete,
	// KilledByCrash via Kernel.Abort, Stalled via the liveness watchdog.
	Outcome Outcome
	// LastProgress is the last virtual time a data packet of this flow
	// reached its receiver (zero until the first arrival). The liveness
	// watchdog compares it against the clock to detect stalls.
	LastProgress sim.Time

	// Unresponsive marks a sender that announces the flow (RTS) but
	// never transmits data — the §8.2 many-to-many stress. The flow can
	// never complete; it exists to occupy receiver scheduling state.
	Unresponsive bool

	// The fields below exist for sharded runs, where the flow object is
	// shared between the sender's and the receiver's engine shards and
	// every field needs exactly one writing side.
	//
	// Ownership: ID/Src/Dst/Size/NPkts/Unresponsive are immutable after
	// setup. The home (receiver) shard owns Done, End, Outcome,
	// LastProgress, Released, and — for dependent flows — Start. The
	// source shard owns SenderStarted, SendNext, SenderHeard, SenderDone
	// and SenderDead.
	// Single-shard runs collapse both sides onto one engine and nothing
	// changes.

	// Home is the index of the flow's home shard: the receiver's shard,
	// where completion, progress tracking, and the liveness watchdog run.
	Home int32
	// Released reports that a dependent flow (workload After) has been
	// released by its parent's completion. Non-dependent flows are
	// released at creation.
	Released bool
	// SenderStarted is set on the source shard when the kernel's start
	// event fires — the first announcement or data leaves the host.
	// The crash pass consults it to distinguish flows with repair
	// work in flight from flows whose start is still scheduled: a
	// receiver that crashes before a flow ever announced needs no
	// re-announce (the pending start event will do it), and triggering
	// one early would move the flow's effective start.
	SenderStarted bool
	// SendNext is the send cursor, the next sequence never yet sent: the
	// one sender record every stack but DCTCP shares (Kernel.Sender).
	SendNext int32
	// SenderHeard is set on the source shard when any receiver-to-sender
	// control packet (grant, token, pull, ack) reaches the sender — the
	// sender-local proof that its announcement got through, which stops
	// RTS re-announcement.
	SenderHeard bool
	// SenderDone is the completion signal's sender-side shadow of Done,
	// set one network lookahead after the flow completes (or directly by
	// the sender-side crash branch when the flow's source dies). It also
	// stops re-announcement, covering flows so short they finish inside
	// the blind window without a single grant.
	SenderDone bool
	// SenderDead is set by the crash pass when the source dies before
	// SenderDone: the cursor died with it, and Kernel.Sender answers nil.
	SenderDead bool
}

// FCT returns the flow completion time (valid once Done).
func (f *Flow) FCT() sim.Time { return f.End - f.Start }

// String implements fmt.Stringer.
func (f *Flow) String() string {
	return fmt.Sprintf("flow %d %s->%s %dB (%d pkts)", f.ID, f.Src.Name(), f.Dst.Name(), f.Size, f.NPkts)
}
