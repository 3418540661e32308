// Package ndp implements the NDP baseline (Handley et al., SIGCOMM
// 2017) at the fidelity the paper's comparison depends on: senders blast
// the first window at line rate, switches trim payloads to headers when
// the data queue exceeds a small threshold instead of dropping, trimmed
// headers travel at the highest priority, receivers NACK trimmed packets
// and pace PULLs at the downlink rate, and senders retransmit NACKed
// packets ahead of new data when pulled.
package ndp

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/transport"
)

const (
	// TrimThreshold is the data-queue length at which switches trim
	// payloads (the paper's and NDP's own value).
	TrimThreshold = 8
	// CtrlQueueCap bounds the header/control band, far above the trim
	// threshold: trimmed headers are how a receiver learns of loss.
	CtrlQueueCap = 256
)

// SwitchQueue builds NDP's trimming switch buffer.
func SwitchQueue(s *netsim.Slabs) netsim.Queue { return s.NewTrimming(TrimThreshold, CtrlQueueCap) }

// HostQueue builds the host NIC queue: large, since NDP deliberately
// blasts the first window at line rate.
func HostQueue(s *netsim.Slabs) netsim.Queue { return s.NewPriority(2048) }

// Protocol is an NDP instance.
type Protocol struct {
	transport.Kernel
	receivers transport.Records[rcvFlow, *rcvFlow]
	pullers   transport.HostTable[puller]
	// rtx holds a sender's NACKed sequences awaiting a pull, from the
	// NACK that finds none queued to the pull that empties the queue; the
	// send cursor itself lives on the flow.
	rtx transport.Records[rtxQueue, *rtxQueue]

	// PullsSent and NacksSent count receiver control traffic; Trims is
	// maintained by the switch queues (sum over ports if needed).
	PullsSent int64
	NacksSent int64
	// PullsReplenished counts timeout-driven pull reissues for the
	// unsent tail (lost-pull recovery).
	PullsReplenished int64

	// The pull and retransmission queues draw their blocks from these,
	// shared by every host and flow of the instance.
	pullBlocks transport.FIFOPool[*transport.Flow]
	rtxBlocks  transport.FIFOPool[int32]
}

type rcvFlow struct {
	transport.Record[rcvFlow]
	p            *Protocol // for HandleEvent: the record is its own timeout event
	f            *transport.Flow
	rcvd         transport.Bitmap
	pullBudget   int32 // packets still to be triggered by pulls
	lastProgress sim.Time
	timer        transport.RecvTimer // runs onTimeout
	// sentEst is the receiver-local estimate of the sender's send cursor:
	// one past the highest sequence seen in any data packet or trimmed
	// header. The timeout recovery uses it instead of peeking at sender
	// state, which may live on another engine shard.
	sentEst int32
}

// rtxQueue is one sender's retransmission queue. It leaves the table,
// its last block going back to rtxBlocks, when a pull empties it, so a
// run keeps as many queues as flows have NACKs waiting at once. A
// completed flow's leftover NACKs stay: a pull still in flight may draw
// one.
type rtxQueue struct {
	transport.Record[rtxQueue]
	seqs transport.FIFO[int32]
}

// puller paces one receiving host's pulls; it is its pacer's Emitter.
type puller struct {
	pacer transport.Pacer
	p     *Protocol
	// queue holds the flows owed one pull each: flows, not receiver
	// records, as a record ends (and is reused) with its flow while its
	// pulls may still wait.
	queue transport.FIFO[*transport.Flow]
}

// New creates an NDP instance on the network.
func New(net *netsim.Network, cfg transport.Config) *Protocol {
	p := &Protocol{Kernel: transport.NewKernel(net, cfg)}
	p.Bind(transport.Hooks{
		ToSender: p.onSenderPkt, ToReceiver: p.onReceiverPkt, Start: p.startFlow,
		DropReceiver: p.dropRcvState, HostCrashed: p.hostCrashed,
	})
	if m := cfg.Metrics; m != nil {
		m.CounterFunc("ndp.pulls_sent", func() int64 { return p.PullsSent })
		m.CounterFunc("ndp.nacks_sent", func() int64 { return p.NacksSent })
		m.CounterFunc("ndp.rts_reannounces", func() int64 { return p.RTSReannounces })
		m.CounterFunc("ndp.pulls_replenished", func() int64 { return p.PullsReplenished })
	}
	return p
}

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "NDP" }

// LiveReceivers reports how many receiver records the instance holds.
func (p *Protocol) LiveReceivers() int { return p.receivers.Len() }

func (p *Protocol) startFlow(f *transport.Flow) {
	p.Announce(f)
	p.SendBlind(f, netsim.PrioData)
}

// GrantAuthority returns the data packets authorized so far: the blind
// first window plus one per pull (each pull triggers exactly one send,
// retransmission or new). The audit grant-budget invariant is
// DataPacketsSent ≤ GrantAuthority.
func (p *Protocol) GrantAuthority() int64 {
	return p.UnsolicitedPkts + p.PullsSent
}

// hostCrashed empties the crashed host's pull pacer queue (flow refs,
// no packets): puller.Emit skips Done flows, but stale entries for crashed
// receiver state would issue pulls against forgotten bitmaps.
func (p *Protocol) hostCrashed(h *netsim.Host) {
	if pl := p.pullers.Get(h.ID()); pl != nil {
		pl.queue.Reset()
	}
}

// dropRcvState forgets flow f's receiver state (timer cancelled).
// No-op if no state exists.
func (p *Protocol) dropRcvState(f *transport.Flow) {
	if r := p.receivers.Get(f.ID); r != nil {
		r.timer.Cancel()
		p.receivers.End(f.ID)
	}
}

func (p *Protocol) onSenderPkt(pkt *netsim.Packet) {
	f := p.Sender(pkt.Flow)
	if f == nil {
		return
	}
	switch pkt.Type {
	case netsim.Nack:
		// The named packet was trimmed: queue it for retransmission on
		// the next pull.
		q := p.rtx.Get(f.ID)
		if q == nil {
			q = p.rtx.New(&p.Kernel, f.ID)
			q.seqs.SetPool(&p.rtxBlocks)
		}
		q.seqs.Push(pkt.Seq)
	case netsim.Pull:
		// One pull, one packet: retransmissions first, then new data. A
		// queue in the table is never empty.
		if q := p.rtx.Get(f.ID); q != nil {
			seq := q.seqs.Pop()
			if q.seqs.Len() == 0 {
				q.seqs.Reset()
				p.rtx.End(f.ID)
			}
			f.Src.Send(p.ResendData(f, seq, netsim.PrioData))
			return
		}
		if out := p.NextData(f, netsim.PrioData); out != nil {
			f.Src.Send(out)
			return
		}
		// Surplus pull with nothing left unsent: echo the send cursor as
		// a header for the last emitted sequence. The receiver's cursor
		// estimate only advances on arrivals, so when the tail of the
		// already-sent range is lost wholesale (a link outage, a crash),
		// its timeout rounds under-aim and replenish pulls for data that
		// does not exist. The echo raises the estimate to the true
		// cursor — and, if the echoed sequence itself is missing, draws
		// an immediate NACK — so the next round retransmits the real
		// holes.
		if f.SendNext > 0 {
			f.Src.Send(p.NewCtrl(netsim.Header, f, f.SendNext-1, false))
		}
	}
}

func (p *Protocol) onReceiverPkt(pkt *netsim.Packet) {
	// RTS, data and trimmed headers all carry the flow size: whichever
	// comes first builds the record.
	r := transport.Receiver(&p.Kernel, &p.receivers, pkt.Flow, p.newRcvFlow)
	if r == nil || r.f.Done {
		return
	}
	switch pkt.Type {
	case netsim.Data:
		if pkt.Trimmed {
			p.onHeader(r, pkt)
			return
		}
		if pkt.Seq+1 > r.sentEst {
			r.sentEst = pkt.Seq + 1
		}
		if !r.rcvd.Set(pkt.Seq) {
			return
		}
		r.lastProgress = p.Now()
		p.DeliverData(r.f, pkt)
		if r.rcvd.Full() {
			p.finish(r)
			return
		}
		p.enqueuePull(r)
	case netsim.Header:
		p.onHeader(r, pkt)
	}
}

// onHeader handles a trimmed packet: NACK the sender so it queues the
// retransmission, and schedule a pull to trigger it.
func (p *Protocol) onHeader(r *rcvFlow, pkt *netsim.Packet) {
	if pkt.Seq+1 > r.sentEst {
		r.sentEst = pkt.Seq + 1
	}
	if r.rcvd.Get(pkt.Seq) {
		return
	}
	n := p.NewCtrl(netsim.Nack, r.f, pkt.Seq, true)
	r.f.Dst.Send(n)
	p.NacksSent++
	// The trimmed packet consumed one send; it must be sent again.
	r.pullBudget++
	p.enqueuePull(r)
}

// newRcvFlow fills in f's receiver record (transport.Receiver takes it
// from the pool and stores it): everything past the blind window is
// still to be pulled.
func (p *Protocol) newRcvFlow(r *rcvFlow, f *transport.Flow) {
	r.p, r.f = p, f
	r.pullBudget = f.NPkts - p.BlindPkts(f)
	r.lastProgress = p.Now()
	p.receivers.InitBitmaps(r, f.NPkts, &r.rcvd)
	p.Heard(f)
	r.timer.Init(&p.Kernel, r)
	r.timer.Arm()
}

func (p *Protocol) enqueuePull(r *rcvFlow) {
	if r.pullBudget <= 0 {
		return
	}
	r.pullBudget--
	pl := p.pullerOf(r.f.Dst)
	pl.queue.Push(r.f)
	pl.pacer.Kick()
}

func (p *Protocol) pullerOf(h *netsim.Host) *puller {
	pl := p.pullers.Get(h.ID())
	if pl == nil {
		pl = p.pullers.Carve(&p.Kernel, h.ID())
		pl.p = p
		pl.queue.SetPool(&p.pullBlocks)
		pl.pacer.Init(p.Engine(), p.HostTick(h), pl)
	}
	return pl
}

// Emit implements transport.Emitter: pull for the next queued flow that
// is still running.
func (pl *puller) Emit() bool {
	p := pl.p
	for pl.queue.Len() > 0 {
		f := pl.queue.Pop()
		if f.Done {
			continue
		}
		pull := p.NewCtrl(netsim.Pull, f, -1, true)
		f.Dst.Send(pull)
		p.PullsSent++
		return true
	}
	return false
}

// HandleEvent implements sim.Handler: the receiver timer fired.
func (r *rcvFlow) HandleEvent(int32, any) { r.p.onTimeout(r) }

// onTimeout recovers from losses the trim path cannot see (e.g. control
// drops): NACK + pull for each missing packet that should have arrived.
func (p *Protocol) onTimeout(r *rcvFlow) {
	if r.f.Done {
		return
	}
	if p.Now()-r.lastProgress >= p.Cfg.RTT {
		limit := p.BDPPkts(r.f.Dst.LinkRate())
		issued := 0
		// Expected: everything the sender has demonstrably emitted — the
		// receiver-local cursor estimate (a lower bound on the true send
		// cursor; anything above it is retried in a later, backed-off
		// round once evidence of its emission arrives).
		sent := r.sentEst
		for seq := r.rcvd.NextClear(0); seq >= 0 && seq < sent && issued < limit; seq = r.rcvd.NextClear(seq + 1) {
			n := p.NewCtrl(netsim.Nack, r.f, seq, true)
			r.f.Dst.Send(n)
			p.NacksSent++
			pl := p.pullerOf(r.f.Dst)
			pl.queue.Push(r.f)
			pl.pacer.Kick()
			issued++
		}
		// A lost pull strips the send trigger for one unsent-tail packet
		// permanently: the pull budget was spent when the pull was
		// enqueued, but the sender never saw it, so nothing will ever ask
		// for that packet again. With no progress for an RTT, reissue
		// pulls for the whole unsent remainder (sharing the NACK loop's
		// budget); a surplus pull is a no-op at a sender with nothing
		// left to send, so over-reissuing cannot duplicate data. The
		// cursor estimate may undercount the true unsent tail, in which
		// case the next backed-off round covers the rest.
		unsent := int(r.f.NPkts - sent)
		if budget := limit - issued; unsent > budget {
			unsent = budget
		}
		if unsent > 0 {
			pl := p.pullerOf(r.f.Dst)
			for i := 0; i < unsent; i++ {
				pl.queue.Push(r.f)
			}
			p.PullsReplenished += int64(unsent)
			pl.pacer.Kick()
		}
		r.timer.BackOff()
	} else {
		r.timer.Reset()
	}
	r.timer.Arm()
}

func (p *Protocol) finish(r *rcvFlow) {
	r.timer.Cancel()
	p.Complete(r.f)
	// The record ends with the flow: the lookup answers nil for a Done
	// flow, and pulls still queued name the flow, not the record, and
	// are skipped on f.Done.
	p.receivers.End(r.f.ID)
}
