package transport

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// Hooks is what a stack plugs into the kernel's flow lifecycle, bound
// once in its constructor (Kernel.Bind). The kernel owns registration,
// the start event, the RTS announce chain, the send cursor
// (Flow.SendNext, found through Sender) and the host-crash pass; a stack
// owns its receiver records, its packet handlers and its scheduling.
// Nothing here runs per packet: the kernel's dispatcher calls the two
// packet handlers as they are.
type Hooks struct {
	// ToSender and ToReceiver are the stack's packet handlers.
	ToSender, ToReceiver func(pkt *netsim.Packet)
	// Start runs on the source shard when the flow's start event fires:
	// call Kernel.Announce, send the unsolicited window.
	Start func(f *Flow)
	// StampRTS, if non-nil, decorates every RTS — first and re-announced
	// — before it is sent (SIRD's demand advertisement).
	StampRTS func(f *Flow, rts *netsim.Packet)
	// DropReceiver forgets f's receiver record, cancelling its timers;
	// it must be a no-op when no record exists.
	DropReceiver func(f *Flow)
	// HostCrashed, if non-nil, runs once after the per-flow crash pass
	// for per-host state: pacer queues, banked credits, freed slots.
	HostCrashed func(h *netsim.Host)
}

// Kernel event ops: 0 is a flow's start; a positive op is an announce
// tick carrying the interval that led to it, in RTTs (3, doubling,
// capped at 64); the negative ops are the two cross-shard signals a
// receiver-side kernel sends to the flow's sender shard.
const (
	opStart       = 0
	announceFirst = 3
	announceCap   = 64
	opHeard       = -1 // Heard: set SenderHeard
	opSenderDone  = -2 // Complete: set SenderDone
)

// Bind installs the stack's hooks. Call it once, from the constructor,
// on the embedded kernel at its final address (the kernel schedules
// events on itself).
func (k *Kernel) Bind(h Hooks) {
	k.hooks = h
	k.dispatch = k.deliver
}

// AddFlow registers a flow with both ends on this instance and
// schedules its start: the experiment run's sequence (AddPending on the
// source side, Adopt on the home side, Release) for a stack's unit
// tests, which have one kernel and no run.
func (k *Kernel) AddFlow(id netsim.FlowID, src, dst *netsim.Host, size int64, start sim.Time) *Flow {
	f := k.AddPending(id, src, dst, size, false)
	k.Adopt(f)
	f.Released, f.Start = true, start
	k.Release(f, start)
	return f
}

// AddUnresponsiveFlow registers a flow whose sender announces itself but
// never sends data (§8.2 stress): it occupies receiver scheduling state
// — a grant slot, pool credit — and can never complete.
func (k *Kernel) AddUnresponsiveFlow(id netsim.FlowID, src, dst *netsim.Host, size int64, start sim.Time) *Flow {
	f := k.AddFlow(id, src, dst, size, start)
	f.Unresponsive = true
	return f
}

// AddPending registers a flow's sender side without scheduling a
// start; Release starts it.
func (k *Kernel) AddPending(id netsim.FlowID, src, dst *netsim.Host, size int64, unresponsive bool) *Flow {
	f := k.NewFlow(id, src, dst, size, 0)
	f.Unresponsive = unresponsive
	k.install(src)
	return f
}

// Release schedules a pending flow's start. It runs on the sender's
// shard and does not write f.Start — the flow's home shard records that
// when it handles the release signal.
func (k *Kernel) Release(f *Flow, start sim.Time) {
	k.Engine().ScheduleEventAt(start, k, opStart, f)
}

// Adopt registers a flow created by another instance on this instance's
// receiver side (flow table entry plus destination host handler). On a
// single-shard run the creating instance adopts its own flow, which
// just installs the destination handler.
func (k *Kernel) Adopt(f *Flow) {
	k.Register(f)
	k.install(f.Dst)
}

// install makes the kernel's dispatcher h's packet handler. Every host
// the kernel serves shares the one handler, so installing it again is a
// no-op.
func (k *Kernel) install(h *netsim.Host) { h.Handler = k.dispatch }

// HandleEvent implements sim.Handler for the kernel's events, all
// carrying the flow as arg, so none costs a closure per flow.
//
// The announce interval travels in op rather than on the Flow because
// two chains can be alive for one flow: a destination crash arms a
// fresh chain at 3×RTT while a tick of the original may still be
// pending, and each must keep doubling from its own interval.
//
// The two signal ops arrive on the flow's sender shard while k is the
// receiver-side kernel that sent them, so they touch the flow only.
func (k *Kernel) HandleEvent(op int32, arg any) {
	f := arg.(*Flow)
	switch op {
	case opStart:
		// The first announcement or data is about to leave the host; from
		// here a destination crash has repair work to do (see OnHostCrash).
		f.SenderStarted = true
		k.hooks.Start(f)
		return
	case opHeard:
		f.SenderHeard = true
		return
	case opSenderDone:
		f.SenderDone = true
		return
	}
	if f.SenderHeard || f.SenderDone {
		return
	}
	k.sendRTS(f)
	k.RTSReannounces++
	k.armAnnounce(f, min(2*op, announceCap))
}

// Announce sends the flow's RTS and arms the re-announce chain:
// exponential backoff from 3×RTT to a 64×RTT cap until the sender hears
// from the receiver. If the RTS and the entire unsolicited window are
// lost — a link flap, a control-loss burst, trimmed headers dropped
// from a full control band — the receiver never learns the flow exists,
// so none of its timers, token expiries or probes can recover it; this
// sender-side announce is the only escape. The chain stops at the first
// tick after a receiver control packet or the Heard confirmation
// reaches the sender (SenderHeard — every later recovery is
// receiver-driven) or the completion signal does (SenderDone); both
// flags are sender-shard state, so the check never reads across shards.
func (k *Kernel) Announce(f *Flow) {
	k.sendRTS(f)
	k.armAnnounce(f, announceFirst)
}

func (k *Kernel) sendRTS(f *Flow) {
	rts := k.NewCtrl(netsim.RTS, f, -1, false)
	if k.hooks.StampRTS != nil {
		k.hooks.StampRTS(f, rts)
	}
	f.Src.Send(rts)
}

func (k *Kernel) armAnnounce(f *Flow, rtts int32) {
	k.Engine().ScheduleEvent(sim.Time(rtts)*k.Cfg.RTT, k, rtts, f)
}

// Receiver is the lookup every stack's receiver handler starts with: it
// returns flow id's record in the stack's table t — the one stored, or
// else, if this kernel knows the flow and it has not finished, a new
// record from t (Records.New) that build fills in for f. The record
// comes zeroed but for its Record header, so build sets fields one by
// one and makes bitmaps with t's InitBitmaps. Unknown, completed and
// crash-killed flows answer nil unless the stack kept their record. RTS
// and data both carry what build needs, so a lost RTS or a receiver
// crash costs one rebuild. A stack that announces calls Heard from
// build.
func Receiver[R any, P record[R]](k *Kernel, t *Records[R, P], id netsim.FlowID, build func(r *R, f *Flow)) *R {
	if r := t.Get(id); r != nil {
		return r
	}
	f := k.Flow(id)
	if f == nil || f.Done {
		return nil
	}
	r := t.New(k, id)
	build(r, f)
	return r
}

// Heard confirms the announcement on the deterministic cross-shard
// control channel; a stack calls it when it creates f's receiver
// record. Grants double as confirmation, but a scheduler may defer them
// arbitrarily under SRPT, and re-announcing until the first grant
// wastes control slots on the bottleneck. The signal takes one
// lookahead at every shard count, so announce behaviour is
// partition-independent.
func (k *Kernel) Heard(f *Flow) {
	k.shard.SignalEvent(f.Dst, f.Src, k, opHeard, f)
}

// OnHostCrash drops the protocol state this instance owns for flows
// touching the crashed host. A crashed sender loses its send cursor,
// pacer position and retransmit state, so its outgoing flows die with
// it (Outcome killed-by-crash). A crashed receiver loses bitmaps, grant
// budgets and timers; the flow itself survives — the sender's RTS
// re-announce rebuilds receiver state from scratch once the host is
// back, which is why no restart callback exists.
//
// On a sharded run the fault layer fires this on every shard at the
// crash instant; each instance handles only the flow halves its shard
// owns (receiver side on the home shard, sender side on the source
// shard), so the aggregate effect equals the single-engine run.
func (k *Kernel) OnHostCrash(h *netsim.Host) {
	for _, f := range k.ordered {
		switch h {
		case f.Src:
			if k.OwnsReceiver(f) && !f.Done {
				k.hooks.DropReceiver(f)
				k.Abort(f)
			}
			if k.OwnsSender(f) && !f.SenderDone {
				// The cursor died with the host (Sender answers nil), and
				// the flow can never finish: stop the announce chain.
				f.SenderDead, f.SenderDone = true, true
			}
		case f.Dst:
			if k.OwnsReceiver(f) && !f.Done {
				k.hooks.DropReceiver(f)
			}
			// Not before the flow's start: see Flow.SenderStarted.
			if k.OwnsSender(f) && f.SenderStarted && !f.SenderDone {
				// The crash destroyed everything the sender's earlier grants
				// proved; clear the heard flag so re-announcement resumes.
				f.SenderHeard = false
				k.armAnnounce(f, announceFirst)
			}
		}
	}
	if k.hooks.HostCrashed != nil {
		k.hooks.HostCrashed(h)
	}
}

// RecvTimer is a receiver record's periodic loss-recovery check: every
// RTT while the flow makes progress, doubling from 2×RTT up to 64×RTT
// while it does not, so a permanently silent sender costs a trickle of
// events instead of a per-RTT scan forever. The check is a typed event
// on the receiver record itself (the record implements sim.Handler and
// runs the stack's timeout scan), so neither binding nor re-arming
// allocates. The scan decides what progress means and calls BackOff or
// Reset, then Arm.
type RecvTimer struct {
	k       *Kernel
	h       sim.Handler
	timer   sim.Timer
	backoff sim.Time
}

// Init binds the timer to its kernel and the record whose HandleEvent
// runs the check.
func (t *RecvTimer) Init(k *Kernel, h sim.Handler) { t.k, t.h = k, h }

// Arm schedules the next check one interval from now.
func (t *RecvTimer) Arm() {
	t.timer = t.k.Engine().ScheduleEvent(max(t.k.Cfg.RTT, t.backoff), t.h, 0, nil)
}

// BackOff doubles the interval, up to 64×RTT.
func (t *RecvTimer) BackOff() {
	if t.backoff < 64*t.k.Cfg.RTT {
		t.backoff = 2 * max(t.k.Cfg.RTT, t.backoff)
	}
}

// Reset returns the interval to one RTT.
func (t *RecvTimer) Reset() { t.backoff = 0 }

// Cancel stops the pending check.
func (t *RecvTimer) Cancel() { t.timer.Cancel() }
