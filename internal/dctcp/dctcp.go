// Package dctcp implements the DCTCP baseline (Alizadeh et al., SIGCOMM
// 2010) — the canonical *reactive, sender-based* congestion control the
// paper's related-work section positions receiver-driven transports
// against. Switches mark the ECN CE bit when the instantaneous queue
// exceeds a threshold K; receivers echo the marks on per-packet ACKs;
// senders keep an EWMA α of the marked fraction and cut their window by
// α/2 once per window.
//
// It is not part of the paper's four-way comparison, but cmd/figures
// -fig related uses it to reproduce the reactive-vs-proactive contrast
// (queue buildup and loss before reaction) the introduction motivates.
package dctcp

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/transport"
)

// DCTCP's fixed parameters, for 10G links.
const (
	// MarkThreshold is the marking threshold K in packets (~DCTCP
	// guidance for 10G).
	MarkThreshold = 32
	// QueueCap is the drop-tail capacity in packets.
	QueueCap = 128
	// G is the α EWMA gain.
	G = 1.0 / 16
	// InitCwnd is the initial congestion window in packets.
	InitCwnd = 10
	// RTORTTs is the retransmission timeout in RTTs.
	RTORTTs = 3
)

// SwitchQueue builds the ECN-marking switch buffer.
func SwitchQueue(s *netsim.Slabs) netsim.Queue { return s.NewECN(QueueCap, MarkThreshold) }

// HostQueue builds the host NIC queue.
func HostQueue(s *netsim.Slabs) netsim.Queue { return s.NewDropTail(1024) }

// Protocol is a DCTCP instance.
type Protocol struct {
	transport.Kernel
	senders   transport.Records[sender, *sender]
	receivers transport.Records[rcvFlow, *rcvFlow]

	// AcksSent counts receiver ACK traffic; Retransmits counts
	// timeout-driven resends.
	AcksSent    int64
	Retransmits int64
}

// sender is a flow's sender-side state, kept for the rest of the run
// once made: its bitmap goes back to the pool when every sequence is
// acked, after which acked reads as full. It is its own RTO event.
type sender struct {
	transport.Record[sender]
	p     *Protocol
	f     *transport.Flow
	acked transport.Bitmap
	next  int32 // next never-sent sequence

	cwnd     float64
	ssthresh float64
	alpha    float64
	inflight int

	// Per-window marking bookkeeping (window = one cwnd of ACKs).
	ackedInWin  int
	markedInWin int
	winSize     int

	lastProgress sim.Time
	rto          sim.Timer
	backoff      sim.Time
}

type rcvFlow struct {
	transport.Record[rcvFlow]
	f    *transport.Flow
	rcvd transport.Bitmap
}

// newRcvFlow fills in f's receiver record. No Heard: a DCTCP sender
// announces nothing that needs confirming.
func (p *Protocol) newRcvFlow(r *rcvFlow, f *transport.Flow) {
	r.f = f
	p.receivers.InitBitmaps(r, f.NPkts, &r.rcvd)
}

// New creates a DCTCP instance on the network.
func New(net *netsim.Network, cfg transport.Config) *Protocol {
	p := &Protocol{Kernel: transport.NewKernel(net, cfg)}
	// Registration and start only; OnHostCrash below shadows the kernel's.
	p.Bind(transport.Hooks{ToSender: p.onSenderPkt, ToReceiver: p.onReceiverPkt, Start: p.startFlow})
	if m := cfg.Metrics; m != nil {
		m.CounterFunc("dctcp.acks_sent", func() int64 { return p.AcksSent })
		m.CounterFunc("dctcp.retransmits", func() int64 { return p.Retransmits })
	}
	return p
}

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "DCTCP" }

// LiveReceivers reports how many receiver records the instance holds.
func (p *Protocol) LiveReceivers() int { return p.receivers.Len() }

// startFlow opens the connection. An unresponsive flow (registered so
// the harness can drive every protocol uniformly) sends nothing: DCTCP
// has no receiver-side scheduling for it to disturb.
func (p *Protocol) startFlow(f *transport.Flow) {
	if f.Unresponsive {
		return
	}
	s := p.senders.New(&p.Kernel, f.ID)
	s.p, s.f = p, f
	s.cwnd, s.ssthresh, s.winSize = InitCwnd, 1<<20, InitCwnd
	p.senders.InitBitmaps(s, f.NPkts, &s.acked)
	s.lastProgress = p.Now()
	p.pump(s)
	p.armRTO(s)
}

// pump transmits while the window allows: first any timed-out holes,
// then fresh sequences.
func (p *Protocol) pump(s *sender) {
	for s.inflight < int(s.cwnd+0.5) && s.next < s.f.NPkts {
		pkt := p.NewData(s.f, s.next, netsim.PrioData)
		pkt.CE = false // DCTCP convention: switches SET the bit on congestion
		s.next++
		s.inflight++
		s.f.Src.Send(pkt)
	}
}

func (p *Protocol) onSenderPkt(pkt *netsim.Packet) {
	if pkt.Type != netsim.Ack {
		return
	}
	s := p.senders.Get(pkt.Flow)
	// Sender-local done test: every sequence acked. Done itself is
	// receiver-shard state, off-limits on the sender's engine shard.
	if s == nil || s.acked.Full() {
		return
	}
	if !s.acked.Set(pkt.Seq) {
		return // duplicate ACK (retransmission raced the original)
	}
	if s.acked.Full() {
		// Nothing reads the bitmap again but Full, which stays true.
		p.senders.ReleaseBitmaps(s, &s.acked)
	}
	if s.inflight > 0 {
		s.inflight--
	}
	s.lastProgress = p.Now()
	s.backoff = 0

	// DCTCP estimator: fraction of marked ACKs per window of ACKs.
	s.ackedInWin++
	if pkt.Echo {
		s.markedInWin++
	}
	if s.ackedInWin >= s.winSize {
		frac := float64(s.markedInWin) / float64(s.ackedInWin)
		s.alpha = (1-G)*s.alpha + G*frac
		if s.markedInWin > 0 {
			s.cwnd = s.cwnd * (1 - s.alpha/2)
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			s.ssthresh = s.cwnd
		}
		s.ackedInWin, s.markedInWin = 0, 0
		s.winSize = int(s.cwnd + 0.5)
		if s.winSize < 1 {
			s.winSize = 1
		}
	}

	// Growth: slow start below ssthresh, else 1/cwnd per ACK.
	if s.cwnd < s.ssthresh {
		s.cwnd++
	} else {
		s.cwnd += 1 / s.cwnd
	}
	p.pump(s)
}

func (p *Protocol) onReceiverPkt(pkt *netsim.Packet) {
	if pkt.Type != netsim.Data {
		return
	}
	r := transport.Receiver(&p.Kernel, &p.receivers, pkt.Flow, p.newRcvFlow)
	if r == nil {
		return
	}
	// Even when the flow is already complete, re-ACK: the data packet is
	// a retransmission whose original ACK was lost, and without a fresh
	// ACK the sender would RTO forever (it cannot see Done, which belongs
	// to this, the receiver's, shard).
	ack := p.NewCtrl(netsim.Ack, r.f, pkt.Seq, true)
	ack.Echo = pkt.CE
	r.f.Dst.Send(ack)
	p.AcksSent++
	if !r.rcvd.Set(pkt.Seq) {
		return
	}
	p.DeliverData(r.f, pkt)
	if r.rcvd.Full() {
		p.Complete(r.f)
		// A re-ACKed duplicate's Set still reports false on the released,
		// full bitmap.
		p.receivers.ReleaseBitmaps(r, &r.rcvd)
	}
}

// OnHostCrash kills every live flow touching the crashed host: DCTCP
// is sender-driven with no announce/rebuild path, so losing either
// endpoint's window or bitmap state is fatal to the connection. On a
// sharded run the hook fires on every shard; the source shard cancels
// the RTO and drops sender state, the home shard drops receiver state
// and records the abort. Crashed connections are not re-established.
func (p *Protocol) OnHostCrash(h *netsim.Host) {
	for _, f := range p.OrderedFlows() {
		if f.Src != h && f.Dst != h {
			continue
		}
		if p.OwnsSender(f) && !f.SenderDone {
			if s := p.senders.Drop(f.ID); s != nil {
				s.rto.Cancel()
			}
			f.SenderDone = true
		}
		if p.OwnsReceiver(f) && !f.Done {
			p.receivers.Drop(f.ID)
			p.Abort(f)
		}
	}
}

func (p *Protocol) armRTO(s *sender) {
	interval := RTORTTs * p.Cfg.RTT
	if s.backoff > interval {
		interval = s.backoff
	}
	s.rto = p.Engine().ScheduleEvent(interval, s, 0, nil)
}

// HandleEvent implements sim.Handler: the RTO fired.
func (s *sender) HandleEvent(int32, any) { s.p.onRTO(s) }

// onRTO retransmits the oldest unacked sequence after a silence of
// RTORTTs×RTT and halves the window (loss reaction).
func (p *Protocol) onRTO(s *sender) {
	if s.acked.Full() {
		return // sender-local done: every sequence acked
	}
	rto := RTORTTs * p.Cfg.RTT
	if p.Now()-s.lastProgress >= rto {
		if seq := s.acked.NextClear(0); seq >= 0 && seq < s.next {
			pkt := p.NewData(s.f, seq, netsim.PrioData)
			pkt.CE = false
			s.f.Src.Send(pkt)
			p.Retransmits++
			s.cwnd = s.cwnd / 2
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			s.ssthresh = s.cwnd
			// Lost in-flight credits are written off so pump can refill.
			if s.inflight > 1 {
				s.inflight = 1
			}
			p.pump(s)
		}
		if s.backoff < 64*p.Cfg.RTT {
			if s.backoff == 0 {
				s.backoff = rto
			}
			s.backoff *= 2
		}
	} else {
		s.backoff = 0
	}
	p.armRTO(s)
}
