// Package phost implements the pHost baseline (Gao et al., CoNEXT 2015)
// at the fidelity the paper's comparison depends on: receivers pace
// per-packet tokens at their downlink rate, assign them to the active
// flow with the shortest remaining processing time (SRPT), let new flows
// send one RTT of data unscheduled ("free tokens"), and stop serving a
// source that does not respond to tokens for 3×RTT.
package phost

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/transport"
)

const (
	// QueueCap is the switch data-queue cap in packets. pHost's own
	// evaluation keeps per-port buffers tiny (tens of KB) — its
	// design assumes a congestion-free core and keeps switch queues
	// tiny. A large buffer here would let blind-start backlogs give
	// pHost an elasticity its token clock does not actually provide.
	QueueCap = 12
	// TimeoutRTTs is the unresponsive-sender timeout in RTTs (the
	// paper's 3×RTT).
	TimeoutRTTs = 3
)

// SwitchQueue builds pHost's switch buffer: control packets bypass data
// in a strict-priority queue with a shared drop-tail cap for data.
func SwitchQueue(s *netsim.Slabs) netsim.Queue { return s.NewPriority(256, QueueCap, QueueCap) }

// HostQueue builds the host NIC queue.
func HostQueue(s *netsim.Slabs) netsim.Queue { return s.NewPriority(1024) }

// Protocol is a pHost instance.
type Protocol struct {
	transport.Kernel
	receivers transport.Records[rcvFlow, *rcvFlow]
	pacers    transport.HostTable[pacerState]
	// expiries times every token this instance has in flight
	// (expiry.go).
	expiries expiryQueue

	// TokensSent counts tokens issued; TokensExpired counts per-token
	// timeouts (a proxy for wasted downlink allocation).
	TokensSent    int64
	TokensExpired int64
}

type rcvFlow struct {
	transport.Record[rcvFlow]
	// The link puts the record on its host's pacerState.flows.
	transport.Link[rcvFlow]
	f    *transport.Flow
	rcvd transport.Bitmap
	// inflight marks the sequences tokened (or sent unscheduled) and
	// awaiting arrival, each with an entry in the instance's expiry
	// queue. The token scheduler tests membership for every hole of
	// every flow, so that is a bit test.
	inflight transport.Bitmap
	// removed is set when the record ends; its queued expiries are dead,
	// and stay dead through the object's next life by their incarnation.
	removed bool
	// lastArrival and tokensSinceArrival drive the unresponsive-source
	// test: a flow is skipped by the token scheduler only when several
	// tokens have gone unanswered for TimeoutRTTs×RTT — mere silence is
	// not evidence if the receiver itself stopped serving the flow
	// (SRPT starvation must not blacklist the victim).
	lastArrival        sim.Time
	tokensSinceArrival int
}

// unresponsiveEvidence is how many unanswered tokens it takes before a
// silent source is considered unresponsive.
const unresponsiveEvidence = 4

// silent reports whether the source has ignored enough tokens for the
// unresponsive timeout.
func (r *rcvFlow) silent(now, timeout sim.Time) bool {
	return r.tokensSinceArrival >= unresponsiveEvidence && now-r.lastArrival >= timeout
}

// remaining is the SRPT metric: bytes not yet received.
func (r *rcvFlow) remaining() int64 {
	return int64(r.f.NPkts-r.rcvd.Count()) * netsim.MSS
}

// pacerState is one receiving host's token pacer and the flows it
// serves; it is its pacer's Emitter.
type pacerState struct {
	pacer transport.Pacer
	p     *Protocol
	flows transport.List[rcvFlow, *rcvFlow]
	// credits implement the arrival clocking the paper ascribes to
	// receiver-driven transports: one token may be issued per data
	// arrival, never faster than the downlink packet rate. An expired
	// token mints none: its hole rejoins the tokenable pool and waits for
	// an arrival's credit, or for probe when the whole flow has stalled
	// (whether expiries should refund is ROADMAP item 2(a)). SRPT decides
	// which flow the credit goes to, which is how a newly arrived short
	// flow preempts a long one at a shared receiver.
	credits int
}

// New creates a pHost instance on the network.
func New(net *netsim.Network, cfg transport.Config) *Protocol {
	p := &Protocol{Kernel: transport.NewKernel(net, cfg)}
	p.expiries = expiryQueue{eng: p.Engine(), expire: p.expire}
	// The sender side is stateless: every token names its sequence, so
	// no handler reads the send cursor.
	p.Bind(transport.Hooks{
		ToSender: p.onSenderPkt, ToReceiver: p.onReceiverPkt, Start: p.startFlow,
		DropReceiver: p.dropRcvState, HostCrashed: p.hostCrashed,
	})
	if m := cfg.Metrics; m != nil {
		m.CounterFunc("phost.tokens_sent", func() int64 { return p.TokensSent })
		m.CounterFunc("phost.tokens_expired", func() int64 { return p.TokensExpired })
		m.CounterFunc("phost.rts_reannounces", func() int64 { return p.RTSReannounces })
	}
	return p
}

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "pHost" }

// LiveReceivers reports how many receiver records the instance holds.
func (p *Protocol) LiveReceivers() int { return p.receivers.Len() }

func (p *Protocol) startFlow(f *transport.Flow) {
	p.Announce(f)
	// Free tokens: the first RTT of data goes out unscheduled.
	p.SendBlind(f, netsim.PrioData)
}

// GrantAuthority returns the data packets authorized so far: the free
// (unscheduled) allowance plus one per token. The audit grant-budget
// invariant is DataPacketsSent ≤ GrantAuthority.
func (p *Protocol) GrantAuthority() int64 {
	return p.UnsolicitedPkts + p.TokensSent
}

// hostCrashed zeroes the crashed host's banked arrival credits; its
// bitmaps and pending token expiries went flow by flow (dropRcvState).
func (p *Protocol) hostCrashed(h *netsim.Host) {
	if ps := p.pacers.Get(h.ID()); ps != nil {
		ps.credits = 0
	}
}

// dropRcvState forgets flow f's receiver state (pending expiries dead,
// pacer list pruned). No-op if no state exists.
func (p *Protocol) dropRcvState(f *transport.Flow) {
	if r := p.receivers.Get(f.ID); r != nil {
		p.removeFlow(r)
		p.receivers.End(f.ID)
	}
}

func (p *Protocol) onSenderPkt(pkt *netsim.Packet) {
	if pkt.Type != netsim.Token {
		return
	}
	f := p.Flow(pkt.Flow)
	if f == nil || f.Unresponsive {
		return
	}
	// Every token names its sequence; retransmissions look identical.
	f.Src.Send(p.NewData(f, pkt.Seq, netsim.PrioData))
}

func (p *Protocol) onReceiverPkt(pkt *netsim.Packet) {
	if pkt.Type != netsim.RTS && pkt.Type != netsim.Data {
		return
	}
	// An RTS only has to leave a record behind; if it is lost, the first
	// data packet does (both carry the flow size).
	r := transport.Receiver(&p.Kernel, &p.receivers, pkt.Flow, p.newRcvFlow)
	if r == nil || r.f.Done || pkt.Type == netsim.RTS {
		return
	}
	if r.inflight.Clear(pkt.Seq) {
		p.expiries.arrived(r, pkt.Seq)
	}
	r.lastArrival = p.Now()
	r.tokensSinceArrival = 0
	if !r.rcvd.Set(pkt.Seq) {
		return
	}
	p.DeliverData(r.f, pkt)
	ps := p.pacerOf(r.f.Dst)
	ps.addCredit(maxBankedCredits)
	if r.rcvd.Full() {
		p.Complete(r.f)
		p.removeFlow(r)
		// The record ends with the flow: the lookup answers nil for a
		// Done flow and removeFlow killed every expiry.
		p.receivers.End(r.f.ID)
		return
	}
	ps.pacer.Kick()
}

// maxBankedCredits bounds how many arrival credits a receiver may store
// while no flow is tokenable (e.g. during a blacklist window). A large
// bank would discharge as a near-line-rate burst when flows become
// eligible again — with several synchronized receivers that oscillates
// into congestion collapse rather than pHost's intended steady pacing.
const maxBankedCredits = 8

// addCredit banks one token credit, capped so idle periods cannot store
// an unbounded burst.
func (ps *pacerState) addCredit(cap int) {
	if ps.credits < cap {
		ps.credits++
	}
}

// newRcvFlow fills in f's receiver record (transport.Receiver takes it
// from the pool and stores it) and enters it in its host's token
// scheduler.
func (p *Protocol) newRcvFlow(r *rcvFlow, f *transport.Flow) {
	r.f, r.lastArrival = f, p.Now()
	p.receivers.InitBitmaps(r, f.NPkts, &r.rcvd, &r.inflight)
	p.Heard(f)
	// The unscheduled first window is in flight: treat it as tokened so
	// the pacer does not double-issue, with the usual expiry.
	blind := p.BlindPkts(f)
	for seq := int32(0); seq < blind; seq++ {
		p.trackPending(r, seq)
	}
	ps := p.pacerOf(f.Dst)
	ps.flows.PushBack(r)
	ps.pacer.Kick()
}

func (p *Protocol) pacerOf(h *netsim.Host) *pacerState {
	ps := p.pacers.Get(h.ID())
	if ps == nil {
		ps = p.pacers.Carve(&p.Kernel, h.ID())
		ps.p = p
		ps.pacer.Init(p.Engine(), p.HostTick(h), ps)
	}
	return ps
}

// Emit implements transport.Emitter.
func (ps *pacerState) Emit() bool { return ps.p.emitToken(ps) }

// emitToken sends one token to the SRPT-best eligible flow, consuming
// one arrival credit.
func (p *Protocol) emitToken(ps *pacerState) bool {
	if ps.credits <= 0 {
		return false
	}
	now := p.Now()
	timeout := TimeoutRTTs * p.Cfg.RTT
	var best *rcvFlow
	var bestSeq int32
	for r := ps.flows.Front(); r != nil; r = ps.flows.Next(r) {
		if r.f.Done || r.silent(now, timeout) {
			continue
		}
		seq := p.nextTokenable(r)
		if seq < 0 {
			continue
		}
		if best == nil || r.remaining() < best.remaining() {
			best, bestSeq = r, seq
		}
	}
	if best == nil {
		return false
	}
	ps.credits--
	tok := p.NewCtrl(netsim.Token, best.f, bestSeq, true)
	best.f.Dst.Send(tok)
	p.TokensSent++
	p.trackPending(best, bestSeq)
	return true
}

// nextTokenable returns the first sequence neither received nor awaiting
// arrival, or -1.
func (p *Protocol) nextTokenable(r *rcvFlow) int32 {
	return r.rcvd.NextClearBoth(&r.inflight, 0)
}

// trackPending arms the per-token expiry: if the packet does not arrive
// within TimeoutRTTs×RTT the source is deemed unresponsive and the flow
// is blacklisted for the same period (the token becomes reissuable after
// that). The expiry is an entry in the instance's expiry queue, not an
// engine event of its own.
func (p *Protocol) trackPending(r *rcvFlow, seq int32) {
	timeout := TimeoutRTTs * p.Cfg.RTT
	r.tokensSinceArrival++
	r.inflight.Set(seq)
	p.expiries.push(r, seq, timeout)
}

// expire runs when the token for r's sequence seq expired.
func (p *Protocol) expire(r *rcvFlow, seq int32) {
	r.inflight.Clear(seq)
	p.TokensExpired++
	if r.f.Done {
		return
	}
	// The hole rejoins the tokenable pool and will be repaired by the
	// regular arrival-clocked token stream (replacing, not adding to,
	// new-sequence tokens — pHost's pacer bounds total token rate). A
	// fully stalled flow is kept alive by a probe.
	ps := p.pacerOf(r.f.Dst)
	if r.inflight.Count() == 0 {
		p.probe(ps, r)
	}
	ps.pacer.Kick()
}

// probe restarts a completely stalled flow (its whole in-flight set
// expired, so no arrivals will mint credits and the silence test bars it
// from regular tokens): one direct token per timeout period, the
// slow-retry behaviour of a paced receiver toward a silent source.
func (p *Protocol) probe(ps *pacerState, r *rcvFlow) {
	if r.f.Done || r.inflight.Count() > 0 {
		return
	}
	if seq := p.nextTokenable(r); seq >= 0 {
		tok := p.NewCtrl(netsim.Token, r.f, seq, true)
		r.f.Dst.Send(tok)
		p.TokensSent++
		p.trackPending(r, seq)
	}
}

func (p *Protocol) removeFlow(r *rcvFlow) {
	r.removed = true
	p.expiries.dropped(r)
	ps := p.pacerOf(r.f.Dst)
	ps.flows.Remove(r)
	ps.pacer.Kick()
}
