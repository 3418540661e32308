// Package homa implements the Homa baseline (Montazeri et al., SIGCOMM
// 2018) at the fidelity the paper's comparison depends on: the first
// bandwidth-delay product of a message is sent unscheduled at high
// priority, and receivers grant the remainder to the top-SRPT messages,
// overcommitting to up to Degree senders simultaneously with one BDP of
// granted-but-undelivered data each.
package homa

import (
	"cmp"
	"slices"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/transport"
)

const (
	// QueueCap is the switch buffer in packets per data priority level,
	// deep because overcommitment deliberately queues granted data at
	// the receiver's downlink.
	QueueCap = 128
	// TimeoutRTTs is the resend timer in RTTs.
	TimeoutRTTs = 3
)

// Config parameterizes Homa.
type Config struct {
	transport.Config

	// Degree is the overcommitment level: how many senders one receiver
	// grants simultaneously (Fig. 14 sweeps 2–8).
	Degree int
}

// DefaultConfig returns Homa with overcommitment degree 2.
func DefaultConfig() Config { return Config{Degree: 2} }

// SwitchQueue builds Homa's switch buffer: control above unscheduled
// above scheduled, each data level capped at QueueCap.
func SwitchQueue(s *netsim.Slabs) netsim.Queue { return s.NewPriority(256, QueueCap, QueueCap) }

// HostQueue builds the host NIC queue.
func HostQueue(s *netsim.Slabs) netsim.Queue { return s.NewPriority(1024) }

// Protocol is a Homa instance.
type Protocol struct {
	transport.Kernel
	// degree is Config.Degree, non-positive values at the default.
	degree    int
	receivers transport.Records[rcvFlow, *rcvFlow]
	byHost    transport.HostTable[hostFlows]
	// active is regrant's scratch slice. regrant runs on every data
	// arrival and never re-enters (Send only schedules), so one buffer
	// per Protocol serves every host.
	active []*rcvFlow
	// freed notes the receiving hosts that lost receiver state during a
	// crash pass; hostCrashed hands their overcommitment slots on.
	freed []*netsim.Host

	// GrantsSent counts grant packets; GrantedPkts counts packets
	// authorized by them.
	GrantsSent  int64
	GrantedPkts int64
	// ResendGrants counts per-sequence resend requests issued by the
	// timeout path, each authorizing one retransmission.
	ResendGrants int64
}

// hostFlows is one receiving host's scheduler list: its unfinished
// messages, in arrival order.
type hostFlows struct {
	flows transport.List[rcvFlow, *rcvFlow]
}

type rcvFlow struct {
	transport.Record[rcvFlow]
	// The link puts the record on its host's hostFlows.flows until it finishes.
	transport.Link[rcvFlow]
	p            *Protocol // for HandleEvent: the record is its own timeout event
	f            *transport.Flow
	rcvd         transport.Bitmap
	granted      int32 // packets authorized (incl. unscheduled window)
	lastProgress sim.Time
	timer        transport.RecvTimer // runs onTimeout
}

func (r *rcvFlow) remaining() int32 { return r.f.NPkts - r.rcvd.Count() }

// byRemaining orders receive flows by least remaining packets, ties by
// flow ID: a total order, so any sorting algorithm gives one result.
func byRemaining(a, b *rcvFlow) int {
	if c := cmp.Compare(a.remaining(), b.remaining()); c != 0 {
		return c
	}
	return cmp.Compare(a.f.ID, b.f.ID)
}

// New creates a Homa instance on the network.
func New(net *netsim.Network, cfg Config) *Protocol {
	p := &Protocol{Kernel: transport.NewKernel(net, cfg.Config), degree: cfg.Degree}
	if p.degree <= 0 {
		p.degree = DefaultConfig().Degree
	}
	p.Bind(transport.Hooks{
		ToSender: p.onSenderPkt, ToReceiver: p.onReceiverPkt, Start: p.startFlow,
		DropReceiver: p.dropRcvState, HostCrashed: p.hostCrashed,
	})
	if m := cfg.Metrics; m != nil {
		m.CounterFunc("homa.grants_sent", func() int64 { return p.GrantsSent })
		m.CounterFunc("homa.granted_pkts", func() int64 { return p.GrantedPkts })
		m.CounterFunc("homa.resend_grants", func() int64 { return p.ResendGrants })
		m.CounterFunc("homa.rts_reannounces", func() int64 { return p.RTSReannounces })
	}
	return p
}

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "Homa" }

// LiveReceivers reports how many receiver records the instance holds.
func (p *Protocol) LiveReceivers() int { return p.receivers.Len() }

func (p *Protocol) startFlow(f *transport.Flow) {
	p.Announce(f)
	// Unscheduled window at high priority.
	p.SendBlind(f, netsim.PrioHigh)
}

// GrantAuthority returns the data packets authorized so far: the
// unscheduled allowance plus window-granted packets plus one per
// resend request. The audit grant-budget invariant is
// DataPacketsSent ≤ GrantAuthority.
func (p *Protocol) GrantAuthority() int64 {
	return p.UnsolicitedPkts + p.GrantedPkts + p.ResendGrants
}

// dropRcvState forgets flow f's receiver state (timer cancelled,
// per-host scheduler list pruned) and notes the host for hostCrashed.
// No-op if no state exists.
func (p *Protocol) dropRcvState(f *transport.Flow) {
	r := p.receivers.Drop(f.ID)
	if r == nil {
		return
	}
	r.timer.Cancel()
	p.unlist(r)
	// Dropped: nothing reads the bitmap again.
	p.receivers.ReleaseBitmaps(r, &r.rcvd)
	p.freed = append(p.freed, f.Dst)
}

// hostCrashed hands the overcommitment slots a dead sender's flows
// freed to surviving messages. That is receiver-side work, so on a
// sharded run it happens on the dead sender's peers' home shards. The
// crashed host itself is noted too when it was receiving, but all its
// receiver state is gone, so that regrant finds nothing to grant.
func (p *Protocol) hostCrashed(*netsim.Host) {
	for _, dst := range p.freed {
		p.regrant(dst)
	}
	p.freed = p.freed[:0]
}

// unlist removes r from its receiving host's scheduler list.
func (p *Protocol) unlist(r *rcvFlow) {
	p.byHost.Get(r.f.Dst.ID()).flows.Remove(r)
}

func (p *Protocol) onSenderPkt(pkt *netsim.Packet) {
	if pkt.Type != netsim.Grant {
		return
	}
	f := p.Sender(pkt.Flow)
	if f == nil {
		return
	}
	if pkt.Seq >= 0 {
		// Resend request for a specific packet (scheduled priority).
		f.Src.Send(p.ResendData(f, pkt.Seq, netsim.PrioData))
		return
	}
	// Window grant: Count packets, sent as a burst at scheduled priority.
	for n := pkt.Count; n > 0; n-- {
		if out := p.NextData(f, netsim.PrioData); out != nil {
			f.Src.Send(out)
		}
	}
}

func (p *Protocol) onReceiverPkt(pkt *netsim.Packet) {
	switch pkt.Type {
	case netsim.RTS:
		if r := transport.Receiver(&p.Kernel, &p.receivers, pkt.Flow, p.newRcvFlow); r != nil {
			p.regrant(r.f.Dst)
		}
	case netsim.Data:
		r := transport.Receiver(&p.Kernel, &p.receivers, pkt.Flow, p.newRcvFlow)
		if r == nil || r.f.Done {
			return
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
		p.regrant(r.f.Dst)
	}
}

// newRcvFlow fills in f's receiver record (transport.Receiver takes it
// from the pool and stores it) and lists it with its host's scheduler.
func (p *Protocol) newRcvFlow(r *rcvFlow, f *transport.Flow) {
	r.p, r.f = p, f
	r.granted, r.lastProgress = p.BlindPkts(f), p.Now()
	p.receivers.InitBitmaps(r, f.NPkts, &r.rcvd)
	hf := p.byHost.Get(f.Dst.ID())
	if hf == nil {
		hf = p.byHost.Carve(&p.Kernel, f.Dst.ID())
	}
	hf.flows.PushBack(r)
	p.Heard(f)
	r.timer.Init(&p.Kernel, r)
	r.timer.Arm()
}

// regrant runs the overcommitment scheduler for one receiving host: the
// Degree messages with the least remaining bytes each keep one BDP of
// granted-but-undelivered data.
func (p *Protocol) regrant(dst *netsim.Host) {
	active := p.active[:0]
	hf := p.byHost.Get(dst.ID()) // every caller has had a record on dst
	for r := hf.flows.Front(); r != nil; r = hf.flows.Next(r) {
		if !r.f.Done {
			active = append(active, r)
		}
	}
	p.active = active
	slices.SortFunc(active, byRemaining)
	bdp := int32(p.BDPPkts(dst.LinkRate()))
	for i := 0; i < len(active) && i < p.degree; i++ {
		r := active[i]
		target := r.rcvd.Count() + bdp
		if target > r.f.NPkts {
			target = r.f.NPkts
		}
		if n := target - r.granted; n > 0 {
			g := p.NewCtrl(netsim.Grant, r.f, -1, true)
			g.Count = int16(n)
			r.granted = target
			p.GrantsSent++
			p.GrantedPkts += int64(n)
			dst.Send(g)
		}
	}
}

// HandleEvent implements sim.Handler: the receiver timer fired.
func (r *rcvFlow) HandleEvent(int32, any) { r.p.onTimeout(r) }

func (p *Protocol) onTimeout(r *rcvFlow) {
	if r.f.Done {
		return
	}
	resend := TimeoutRTTs * p.Cfg.RTT
	if p.Now()-r.lastProgress >= resend {
		cap := p.BDPPkts(r.f.Dst.LinkRate())
		issued := 0
		for seq := r.rcvd.NextClear(0); seq >= 0 && seq < r.granted && issued < cap; seq = r.rcvd.NextClear(seq + 1) {
			g := p.NewCtrl(netsim.Grant, r.f, seq, true)
			r.f.Dst.Send(g)
			p.ResendGrants++
			issued++
		}
		// Freshly regrant in case slots opened up.
		p.regrant(r.f.Dst)
		// No answer since the last check: back off (reset on progress).
		r.timer.BackOff()
	} else {
		r.timer.Reset()
	}
	r.timer.Arm()
}

func (p *Protocol) finish(r *rcvFlow) {
	r.timer.Cancel()
	p.Complete(r.f)
	// Drop from the per-host list and hand the slot to the next message.
	p.unlist(r)
	p.regrant(r.f.Dst)
	// The record stays in p.receivers: a late RTS for a finished flow
	// still regrants its host, so dropping it here is a v10 change. Its
	// bitmap goes back to the pool: the data path and the timeout stop
	// at Done, and regrant sees listed records only.
	p.receivers.ReleaseBitmaps(r, &r.rcvd)
}
