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

// Config parameterizes Homa.
type Config struct {
	transport.Config

	// Degree is the overcommitment level: how many senders one receiver
	// grants simultaneously (Fig. 14 sweeps 2–8).
	Degree int
	// QueueCap is the switch buffer in packets per data priority level
	// (default 128).
	QueueCap int
	// TimeoutRTTs is the resend timer in RTTs (default 3).
	TimeoutRTTs int
}

// DefaultConfig returns Homa with overcommitment degree 2.
func DefaultConfig() Config {
	return Config{Degree: 2, QueueCap: 128, TimeoutRTTs: 3}
}

func (c Config) withDefaults() Config {
	if c.Degree == 0 {
		c.Degree = 2
	}
	if c.QueueCap == 0 {
		c.QueueCap = 128
	}
	if c.TimeoutRTTs == 0 {
		c.TimeoutRTTs = 3
	}
	return c
}

// SwitchQueue builds Homa's switch buffer: control above unscheduled
// above scheduled, data levels sharing the configured cap.
func (c Config) SwitchQueue() netsim.Queue {
	cap := c.QueueCap
	if cap == 0 {
		cap = 128
	}
	return netsim.NewPriority(256, cap, cap)
}

// HostQueue builds the host NIC queue.
func (c Config) HostQueue() netsim.Queue { return netsim.NewPriority(1024) }

// Protocol is a Homa instance.
type Protocol struct {
	transport.Kernel
	cfg       Config
	senders   map[netsim.FlowID]*sender
	receivers map[netsim.FlowID]*rcvFlow
	byHost    map[netsim.NodeID][]*rcvFlow
	installed map[netsim.NodeID]bool
	// active is regrant's scratch slice. regrant runs on every data
	// arrival and never re-enters (Send only schedules), so one buffer
	// per Protocol serves every host.
	active []*rcvFlow

	// GrantsSent counts grant packets; GrantedPkts counts packets
	// authorized by them.
	GrantsSent  int64
	GrantedPkts int64
	// ResendGrants counts per-sequence resend requests issued by the
	// timeout path, each authorizing one retransmission.
	ResendGrants int64
	// RTSReannounces counts sender-side RTS re-sends (armAnnounce).
	RTSReannounces int64
}

type sender struct {
	f    *transport.Flow
	next int32
}

type rcvFlow struct {
	f            *transport.Flow
	rcvd         *transport.Bitmap
	granted      int32 // packets authorized (incl. unscheduled window)
	lastProgress sim.Time
	timer        sim.Timer
	onTimer      func() // p.onTimeout(r), bound once: the per-RTT re-arm must not allocate
	// backoff doubles the resend-check interval while a flow makes no
	// progress (up to 64×RTT), so a permanently silent sender costs a
	// trickle of events instead of a per-RTT scan forever.
	backoff sim.Time
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
	p := &Protocol{
		Kernel:    transport.NewKernel(net, cfg.Config),
		cfg:       cfg.withDefaults(),
		senders:   make(map[netsim.FlowID]*sender),
		receivers: make(map[netsim.FlowID]*rcvFlow),
		byHost:    make(map[netsim.NodeID][]*rcvFlow),
		installed: make(map[netsim.NodeID]bool),
	}
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

// Degree returns the configured overcommitment level.
func (p *Protocol) Degree() int { return p.cfg.Degree }

// AddFlow registers a flow on both endpoints of this instance and
// schedules its start — the single-instance convenience path. The
// sharded runner instead splits registration across instances with
// AddPending/Release on the source shard and Adopt on the home shard.
func (p *Protocol) AddFlow(id netsim.FlowID, src, dst *netsim.Host, size int64, start sim.Time) *transport.Flow {
	f := p.NewFlow(id, src, dst, size, start)
	f.Released = true
	p.install(src)
	p.install(dst)
	p.Engine().ScheduleAt(start, func() { p.startFlow(f) })
	return f
}

// AddUnresponsiveFlow registers a flow that announces itself but never
// sends data; with overcommitment it pins one of the receiver's grant
// slots until the flow would complete.
func (p *Protocol) AddUnresponsiveFlow(id netsim.FlowID, src, dst *netsim.Host, size int64, start sim.Time) *transport.Flow {
	f := p.AddFlow(id, src, dst, size, start)
	f.Unresponsive = true
	return f
}

// AddPending registers a dependent flow's sender side without
// scheduling a start; Release starts it when the parent completes.
func (p *Protocol) AddPending(id netsim.FlowID, src, dst *netsim.Host, size int64, unresponsive bool) *transport.Flow {
	f := p.NewFlow(id, src, dst, size, 0)
	f.Unresponsive = unresponsive
	p.install(src)
	return f
}

// Release schedules a pending flow's start (the home shard writes
// f.Start when it handles the release signal).
func (p *Protocol) Release(f *transport.Flow, start sim.Time) {
	p.Engine().ScheduleAt(start, func() { p.startFlow(f) })
}

// Adopt registers a flow created by another instance on this instance's
// receiver side.
func (p *Protocol) Adopt(f *transport.Flow) {
	p.Register(f)
	p.install(f.Dst)
}

func (p *Protocol) install(h *netsim.Host) {
	if p.installed[h.ID()] {
		return
	}
	p.installed[h.ID()] = true
	transport.Dispatcher{Kernel: &p.Kernel, ToSender: p.onSenderPkt, ToReceiver: p.onReceiverPkt}.Install(h)
}

func (p *Protocol) startFlow(f *transport.Flow) {
	f.SenderStarted = true
	s := &sender{f: f}
	p.senders[f.ID] = s
	f.Src.Send(p.NewCtrl(netsim.RTS, f, -1, false))
	p.armAnnounce(f, 3*p.Cfg.RTT)
	if f.Unresponsive {
		return
	}
	// Unscheduled window at high priority.
	blind := p.BlindPkts(f)
	for ; s.next < blind; s.next++ {
		pkt := p.NewData(f, s.next, netsim.PrioHigh)
		f.Src.Send(pkt)
	}
	p.UnsolicitedPkts += int64(blind)
}

// GrantAuthority returns the data packets authorized so far: the
// unscheduled allowance plus window-granted packets plus one per
// resend request. The audit grant-budget invariant is
// DataPacketsSent ≤ GrantAuthority.
func (p *Protocol) GrantAuthority() int64 {
	return p.UnsolicitedPkts + p.GrantedPkts + p.ResendGrants
}

// OnHostCrash drops the protocol state this instance owns for flows
// touching the crashed host. A crashed sender kills its outgoing flows
// and frees their grant slots; a crashed receiver loses bitmaps and
// grant windows — those flows survive and are rebuilt by the sender's
// RTS re-announce after restart. On a sharded run the hook fires on
// every shard; each instance handles only the flow halves its shard
// owns (the regrant of freed slots is receiver-side work, so it runs
// on the dead sender's peers' home shards).
func (p *Protocol) OnHostCrash(h *netsim.Host) {
	var regrantDsts []*netsim.Host
	for _, f := range p.OrderedFlows() {
		switch h {
		case f.Src:
			if p.OwnsReceiver(f) && !f.Done {
				p.dropRcvState(f)
				p.Abort(f)
				regrantDsts = append(regrantDsts, f.Dst)
			}
			if p.OwnsSender(f) && !f.SenderDone {
				delete(p.senders, f.ID)
				// The flow can never finish; stop the announce chain.
				f.SenderDone = true
			}
		case f.Dst:
			if p.OwnsReceiver(f) && !f.Done {
				p.dropRcvState(f)
			}
			if p.OwnsSender(f) && f.SenderStarted && !f.SenderDone {
				// Clear the sender-side flag so re-announcement resumes.
				f.SenderHeard = false
				p.armAnnounce(f, 3*p.Cfg.RTT)
			}
		}
	}
	// Hand the freed overcommitment slots to surviving messages.
	for _, dst := range regrantDsts {
		p.regrant(dst)
	}
}

// OnHostRestart is a no-op for Homa: surviving flows towards the host
// are re-announced by the sender-side armAnnounce chain.
func (p *Protocol) OnHostRestart(h *netsim.Host) {}

// dropRcvState forgets flow f's receiver state (timer cancelled,
// per-host scheduler list pruned). No-op if no state exists.
func (p *Protocol) dropRcvState(f *transport.Flow) {
	r := p.receivers[f.ID]
	if r == nil {
		return
	}
	r.timer.Cancel()
	delete(p.receivers, f.ID)
	flows := p.byHost[f.Dst.ID()]
	keep := flows[:0]
	for _, x := range flows {
		if x != r {
			keep = append(keep, x)
		}
	}
	p.byHost[f.Dst.ID()] = keep
}

// armAnnounce re-sends the flow's RTS with exponential backoff (3×RTT
// initial, 64×RTT cap) until receiver state exists. If the RTS and the
// whole unscheduled window are lost, no rcvFlow is ever created, so the
// resend timer that would repair the loss never arms; the sender must
// keep announcing. Self-cancels once a grant reaches the sender
// (SenderHeard — the receiver's timeout machinery then owns recovery)
// or the completion signal does (SenderDone); both flags are
// sender-shard state.
func (p *Protocol) armAnnounce(f *transport.Flow, interval sim.Time) {
	p.Engine().Schedule(interval, func() {
		if f.SenderHeard || f.SenderDone {
			return
		}
		f.Src.Send(p.NewCtrl(netsim.RTS, f, -1, false))
		p.RTSReannounces++
		next := interval * 2
		if max := 64 * p.Cfg.RTT; next > max {
			next = max
		}
		p.armAnnounce(f, next)
	})
}

func (p *Protocol) onSenderPkt(pkt *netsim.Packet) {
	if pkt.Type != netsim.Grant {
		return
	}
	s := p.senders[pkt.Flow]
	if s == nil || s.f.Unresponsive {
		return
	}
	if pkt.Seq >= 0 {
		// Resend request for a specific packet (scheduled priority).
		s.f.Src.Send(p.NewData(s.f, pkt.Seq, netsim.PrioData))
		if pkt.Seq >= s.next {
			s.next = pkt.Seq + 1
		}
		return
	}
	// Window grant: Count packets, sent as a burst at scheduled priority.
	for i := int16(0); i < pkt.Count && s.next < s.f.NPkts; i++ {
		s.f.Src.Send(p.NewData(s.f, s.next, netsim.PrioData))
		s.next++
	}
}

func (p *Protocol) onReceiverPkt(pkt *netsim.Packet) {
	switch pkt.Type {
	case netsim.RTS:
		if r := p.rcvFor(pkt); r != nil {
			p.regrant(r.f.Dst)
		}
	case netsim.Data:
		r := p.rcvFor(pkt)
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

func (p *Protocol) rcvFor(pkt *netsim.Packet) *rcvFlow {
	if r, ok := p.receivers[pkt.Flow]; ok {
		return r
	}
	f := p.Flows[pkt.Flow]
	if f == nil || f.Done {
		return nil // unknown, completed, or crash-killed flow
	}
	r := &rcvFlow{
		f: f, rcvd: transport.NewBitmap(f.NPkts),
		granted: p.BlindPkts(f), lastProgress: p.Now(),
	}
	p.receivers[pkt.Flow] = r
	p.byHost[f.Dst.ID()] = append(p.byHost[f.Dst.ID()], r)
	// Announce confirmation (see core/amrt.receiverFor): stop the
	// sender's re-announce timer without waiting for the first grant.
	f2 := f
	p.Shard().Signal(f.Dst, f.Src, func() { f2.SenderHeard = true })
	r.onTimer = func() { p.onTimeout(r) }
	p.armTimeout(r)
	return r
}

// regrant runs the overcommitment scheduler for one receiving host: the
// Degree messages with the least remaining bytes each keep one BDP of
// granted-but-undelivered data.
func (p *Protocol) regrant(dst *netsim.Host) {
	active := p.active[:0]
	for _, r := range p.byHost[dst.ID()] {
		if !r.f.Done {
			active = append(active, r)
		}
	}
	p.active = active
	slices.SortFunc(active, byRemaining)
	bdp := int32(p.BDPPkts(dst.LinkRate()))
	for i := 0; i < len(active) && i < p.cfg.Degree; i++ {
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

func (p *Protocol) armTimeout(r *rcvFlow) {
	interval := p.Cfg.RTT
	if r.backoff > interval {
		interval = r.backoff
	}
	r.timer = p.Engine().Schedule(interval, r.onTimer)
}

func (p *Protocol) onTimeout(r *rcvFlow) {
	if r.f.Done {
		return
	}
	resend := sim.Time(p.cfg.TimeoutRTTs) * p.Cfg.RTT
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
		if r.backoff < 64*p.Cfg.RTT {
			if r.backoff == 0 {
				r.backoff = p.Cfg.RTT
			}
			r.backoff *= 2
		}
	} else {
		r.backoff = 0
	}
	p.armTimeout(r)
}

func (p *Protocol) finish(r *rcvFlow) {
	r.timer.Cancel()
	p.Complete(r.f)
	// Drop from the per-host list and hand the slot to the next message.
	flows := p.byHost[r.f.Dst.ID()]
	keep := flows[:0]
	for _, x := range flows {
		if x != r {
			keep = append(keep, x)
		}
	}
	p.byHost[r.f.Dst.ID()] = keep
	p.regrant(r.f.Dst)
}
