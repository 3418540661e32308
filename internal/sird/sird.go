// Package sird implements a sender-informed receiver-driven transport
// in the style of SIRD (Prasopoulos, Kosta, Bugnion and Kogias, "SIRD:
// A Sender-Informed, Receiver-Driven Datacenter Transport Protocol",
// arXiv 2312.15403): senders advertise their queued backlog ("demand")
// on the RTS and on every data packet, and each receiver allocates
// credit from one bounded shared pool, weighting flows by their
// advertised demand instead of blindly overcommitting a fixed per-flow
// window. The pool bound caps the scheduled granted-but-undelivered
// bytes converging on a downlink, which is what keeps buffer occupancy
// low; demand weighting is what keeps the link busy, since credit flows
// toward senders that can actually use it.
//
// The reproduction simplifies the paper's mechanism to this simulator's
// grant/credit model: grants are paced at the downlink packet rate, one
// MSS of credit each, and the scheduler is a deterministic
// integer-weighted round-robin over the receiver's active flows.
package sird

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/transport"
)

const (
	// QueueCap is the switch data-queue budget in packets (AMRT's data
	// depth). Each of SIRD's two data levels (unscheduled above
	// scheduled) gets half of it, rounded up: pool pacing, not switch
	// buffering, absorbs bursts, so SIRD runs the same budget at half
	// the per-level depth — that is the buffer-occupancy half of the
	// head-to-head comparison.
	QueueCap = 8
	// TimeoutRTTs is the loss-recovery resend timer in RTTs.
	TimeoutRTTs = 3
)

// Config parameterizes SIRD.
type Config struct {
	transport.Config

	// PoolBytes bounds each receiving host's outstanding scheduled
	// credit (granted but not yet delivered bytes). 0 means automatic:
	// 1.5× the downlink bandwidth-delay product, enough to keep the
	// link busy across the grant loop with a half-BDP margin for
	// demand estimation error.
	PoolBytes int64
	// StalenessRTTs is how long a sender's demand advertisement stays
	// trusted, in RTTs (default 8). Past that the receiver falls back
	// to its own ungranted-bytes estimate, so a stalled advertisement
	// cannot pin credit weighting forever.
	StalenessRTTs int
}

// DefaultConfig returns the defaults used by the experiments.
func DefaultConfig() Config { return Config{StalenessRTTs: 8} }

// sirdBlindPkts is the default unscheduled window. SIRD deliberately
// keeps it far below one BDP (the receiver-driven baselines' default):
// the unscheduled prefix exists only to cover the announce round-trip,
// and everything after it arrives paced by pool credit. This is the
// buffer-occupancy half of the head-to-head trade-off — an incast of
// blind BDP windows is exactly the burst the credit pool cannot govern.
const sirdBlindPkts = 4

func (c Config) withDefaults() Config {
	if c.BlindWindow == 0 {
		c.BlindWindow = sirdBlindPkts
	}
	if c.StalenessRTTs <= 0 {
		c.StalenessRTTs = DefaultConfig().StalenessRTTs
	}
	return c
}

// SwitchQueue builds SIRD's switch buffer: control above unscheduled
// above scheduled, each data level at half the QueueCap budget. Paced
// credit keeps scheduled arrivals at the downlink drain rate and the
// tiny unscheduled window needs no depth, so shallow per-level queues
// cost little goodput while capping occupancy below the single-level
// baselines'.
func SwitchQueue(s *netsim.Slabs) netsim.Queue {
	const half = (QueueCap + 1) / 2
	return s.NewPriority(256, half, half)
}

// HostQueue builds the host NIC queue.
func HostQueue(s *netsim.Slabs) netsim.Queue { return s.NewPriority(1024) }

// Protocol is a SIRD instance.
type Protocol struct {
	transport.Kernel
	cfg       Config
	receivers transport.Records[rcvFlow, *rcvFlow]
	pools     transport.HostTable[poolState]

	// GrantsSent counts pool grant packets; GrantedPkts counts packets
	// authorized by them (1:1 for SIRD's paced single-MSS grants).
	GrantsSent  int64
	GrantedPkts int64
	// ResendGrants counts per-sequence resend requests issued by the
	// timeout path, each authorizing one retransmission.
	ResendGrants int64
	// PoolReclaims counts timeout-driven reclaims of charged credit
	// from silent flows back into their receiver's pool.
	PoolReclaims int64

	// The pools' recovery queues and the records' reissue times draw
	// their blocks from these, shared by every host and flow of the
	// instance.
	recBlocks transport.FIFOPool[recReq]
	reissues  transport.SparsePool[sim.Time]
}

// demand returns the sender's current backlog advertisement: bytes of
// the flow not yet handed to the NIC, Size − SendNext×MSS. A resend
// moves the cursor only when it names a packet never sent — the backlog
// is about first transmissions.
func demand(f *transport.Flow) int64 {
	if f.SendNext >= f.NPkts {
		return 0
	}
	return f.Size - int64(f.SendNext)*netsim.MSS
}

type rcvFlow struct {
	transport.Record[rcvFlow]
	// The link puts the record on its host's poolState.flows until it settles.
	transport.Link[rcvFlow]
	p     *Protocol // for HandleEvent: the record is its own timeout event
	f     *transport.Flow
	rcvd  transport.Bitmap
	blind int32 // unscheduled prefix; pool credit covers seq >= blind

	granted int32 // packets authorized (incl. unscheduled window)
	charged int64 // pool bytes charged and not yet delivered or reclaimed

	// demand is the sender's latest backlog advertisement and demandAt
	// its arrival time; past the staleness window the scheduler falls
	// back to the receiver's own ungranted-bytes estimate.
	demand   int64
	demandAt sim.Time

	// due is the weighted-round-robin accumulator: each scheduling step
	// adds the flow's weight, the largest accumulator wins the grant
	// and pays the total weight back. Integer state, so shard count and
	// event order cannot perturb the schedule.
	due int64

	// lastArrival and grantsSinceArrival drive the silent-source test:
	// a flow is skipped by the pool only when several grants have gone
	// unanswered for the timeout period — mere silence is not evidence
	// if the pool itself stopped serving the flow.
	lastArrival        sim.Time
	grantsSinceArrival int

	lastProgress sim.Time
	timer        transport.RecvTimer // runs onTimeout

	// grants notes (time, granted) at each timeout check, so the
	// recovery scan can tell which holes were authorized long enough ago
	// to declare lost. reissuedAt remembers when each hole's resend
	// grant went out, so a retransmission still plausibly in flight is
	// not duplicated; the reissued bit marks exactly its keys, so an
	// arrival or a hole scans it only on a hit.
	grants     transport.GrantRing
	reissuedAt transport.Sparse[sim.Time]
	reissued   transport.Bitmap
}

// silenceEvidence is how many unanswered grants it takes before a
// silent source stops drawing from the credit pool.
const silenceEvidence = 4

// silent reports whether the source has ignored enough credit for the
// unresponsive timeout.
func (r *rcvFlow) silent(now, timeout sim.Time) bool {
	return r.grantsSinceArrival >= silenceEvidence && now-r.lastArrival >= timeout
}

// ungranted is the receiver-side demand fallback: bytes of the flow no
// credit has been issued for yet.
func (r *rcvFlow) ungranted() int64 {
	if r.granted >= r.f.NPkts {
		return 0
	}
	return int64(r.f.NPkts-r.granted) * netsim.MSS
}

// poolState is one receiving host's credit pool and grant pacer; it is
// its pacer's Emitter.
type poolState struct {
	pacer transport.Pacer
	p     *Protocol
	flows transport.List[rcvFlow, *rcvFlow]

	// bound caps outstanding; outstanding is the sum of the member
	// flows' charged bytes. The audit credit-pool rule checks
	// outstanding <= bound at every audit tick.
	bound       int64
	outstanding int64

	// recovery queues resend requests for the pacer, so
	// retransmissions reach the downlink at the same line-rate pace as
	// fresh credit instead of bursting out of the timeout scan. Served
	// ahead of fresh grants and exempt from the pool bound — the lost
	// packet's charge is still outstanding.
	recovery transport.FIFO[recReq]
}

type recReq struct {
	r   *rcvFlow
	seq int32
}

// New creates a SIRD instance on the network.
func New(net *netsim.Network, cfg Config) *Protocol {
	cfg = cfg.withDefaults()
	p := &Protocol{Kernel: transport.NewKernel(net, cfg.Config), cfg: cfg}
	// No HostCrashed: a crashed receiver's pool drains flow by flow as
	// dropRcvState returns each member's charge.
	p.Bind(transport.Hooks{
		ToSender: p.onSenderPkt, ToReceiver: p.onReceiverPkt, Start: p.startFlow,
		StampRTS: p.stampRTS, DropReceiver: p.dropRcvState,
	})
	if m := cfg.Metrics; m != nil {
		m.CounterFunc("sird.grants_sent", func() int64 { return p.GrantsSent })
		m.CounterFunc("sird.resend_grants", func() int64 { return p.ResendGrants })
		m.CounterFunc("sird.rts_reannounces", func() int64 { return p.RTSReannounces })
		m.CounterFunc("sird.pool_reclaims", func() int64 { return p.PoolReclaims })
	}
	return p
}

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "SIRD" }

// LiveReceivers reports how many receiver records the instance holds.
func (p *Protocol) LiveReceivers() int { return p.receivers.Len() }

func (p *Protocol) startFlow(f *transport.Flow) {
	p.Announce(f) // stamped with the full size: nothing handed to the NIC yet
	if f.Unresponsive {
		return
	}
	// Kernel.SendBlind at high priority, demand piggybacked: stamped before
	// the cursor passes the packet (a granted one after it).
	blind := p.BlindPkts(f)
	for ; f.SendNext < blind; f.SendNext++ {
		pkt := p.NewData(f, f.SendNext, netsim.PrioHigh)
		pkt.Demand = demand(f)
		f.Src.Send(pkt)
	}
	p.UnsolicitedPkts += int64(blind)
}

// GrantAuthority returns the data packets authorized so far: the
// unscheduled allowance plus pool-granted packets plus one per resend
// request. The audit grant-budget invariant is
// DataPacketsSent ≤ GrantAuthority.
func (p *Protocol) GrantAuthority() int64 {
	return p.UnsolicitedPkts + p.GrantedPkts + p.ResendGrants
}

// CreditLedger reports the credit-pool state the audit rule checks:
// the outstanding/bound pair of the most loaded pool (largest
// outstanding−bound margin), so one probe catches an over-bound pool on
// any receiving host; a pool driven negative (double repayment) is
// returned immediately. With no pools yet it reports 0 ≤ 0.
func (p *Protocol) CreditLedger() (outstanding, bound int64) {
	first := true
	for _, h := range p.Net.Hosts() {
		ps := p.pools.Get(h.ID())
		if ps == nil {
			continue
		}
		if ps.outstanding < 0 {
			return ps.outstanding, ps.bound
		}
		if first || ps.outstanding-ps.bound > outstanding-bound {
			outstanding, bound = ps.outstanding, ps.bound
			first = false
		}
	}
	return outstanding, bound
}

// stampRTS advertises the sender's backlog on every RTS, first and
// re-announced alike (the cursor outlives the announce chain).
// An unresponsive sender keeps advertising its full size, drawing a few
// grants' worth of pool credit that the timeout path then reclaims.
func (p *Protocol) stampRTS(f *transport.Flow, rts *netsim.Packet) {
	rts.Demand = demand(f)
}

// dropRcvState forgets flow f's receiver state: timer cancelled, pool
// membership pruned, charged credit returned. No-op if no state exists.
func (p *Protocol) dropRcvState(f *transport.Flow) {
	r := p.receivers.Drop(f.ID)
	if r == nil {
		return
	}
	r.timer.Cancel()
	r.reissuedAt.Release()
	p.pools.Get(f.Dst.ID()).settle(r) // r joined the pool when it was built
	// Dropped: nothing reads the bitmaps again.
	p.receivers.ReleaseBitmaps(r, &r.rcvd, &r.reissued)
}

// settle returns r's remaining charge to the pool, drops it from the
// member list and lets the pacer hand the credit to the next flow.
func (ps *poolState) settle(r *rcvFlow) {
	ps.outstanding -= r.charged
	r.charged = 0
	ps.flows.Remove(r)
	ps.pacer.Kick()
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
		out := p.ResendData(f, pkt.Seq, netsim.PrioData)
		out.Demand = demand(f)
		f.Src.Send(out)
		return
	}
	// Pool grant: Count packets from the cursor, scheduled priority.
	for n := pkt.Count; n > 0; n-- {
		if out := p.NextData(f, netsim.PrioData); out != nil {
			out.Demand = demand(f)
			f.Src.Send(out)
		}
	}
}

func (p *Protocol) onReceiverPkt(pkt *netsim.Packet) {
	switch pkt.Type {
	case netsim.RTS:
		if r := transport.Receiver(&p.Kernel, &p.receivers, pkt.Flow, p.newRcvFlow); r != nil {
			p.noteDemand(r, pkt.Demand)
			p.poolOf(r.f.Dst).pacer.Kick()
		}
	case netsim.Data:
		r := transport.Receiver(&p.Kernel, &p.receivers, pkt.Flow, p.newRcvFlow)
		if r == nil || r.f.Done {
			return
		}
		p.noteDemand(r, pkt.Demand)
		r.lastArrival = p.Now()
		r.grantsSinceArrival = 0
		if !r.rcvd.Set(pkt.Seq) {
			return
		}
		if r.reissued.Clear(pkt.Seq) { // rarely: skip the scan otherwise
			r.reissuedAt.Delete(pkt.Seq)
		}
		r.lastProgress = p.Now()
		p.DeliverData(r.f, pkt)
		ps := p.poolOf(r.f.Dst)
		// Scheduled arrivals repay their pool charge; the unscheduled
		// prefix was never charged.
		if pkt.Seq >= r.blind && r.charged > 0 {
			repay := int64(netsim.MSS)
			if repay > r.charged {
				repay = r.charged
			}
			r.charged -= repay
			ps.outstanding -= repay
		}
		if r.rcvd.Full() {
			p.finish(r)
			return
		}
		ps.pacer.Kick()
	}
}

// noteDemand records a fresh sender backlog advertisement. The
// advertisement also reveals the sender's progress — demand is exactly
// the bytes not yet handed to the NIC — so the receiver fast-forwards
// its authorized count over the transmitted prefix. That is what makes
// recovery after a receiver reboot sender-informed: the rebuilt state
// starts at the tiny blind window, and without the inference the
// timeout scan could only re-request holes a few packets at a time.
func (p *Protocol) noteDemand(r *rcvFlow, demand int64) {
	r.demand = demand
	r.demandAt = p.Now()
	sent := r.f.NPkts
	if demand > 0 {
		sent = int32((r.f.Size - demand) / netsim.MSS)
	}
	if sent > r.granted {
		r.granted = sent
	}
}

// newRcvFlow fills in f's receiver record (transport.Receiver takes it
// from the pool and stores it) and makes it a member of its host's
// credit pool.
func (p *Protocol) newRcvFlow(r *rcvFlow, f *transport.Flow) {
	now := p.Now()
	blind := p.BlindPkts(f)
	r.p, r.f, r.blind = p, f, blind
	r.granted, r.lastArrival, r.lastProgress = blind, now, now
	p.receivers.InitBitmaps(r, f.NPkts, &r.rcvd, &r.reissued)
	r.reissuedAt.SetPool(&p.reissues)
	// Seed the grant-age ring so the unscheduled prefix (authorized at
	// flow start) becomes recoverable one timeout window from now.
	r.grants.Note(now, r.granted)
	p.Heard(f)
	ps := p.poolOf(f.Dst)
	ps.flows.PushBack(r)
	ps.pacer.Kick()
	r.timer.Init(&p.Kernel, r)
	r.timer.Arm()
}

func (p *Protocol) poolOf(h *netsim.Host) *poolState {
	ps := p.pools.Get(h.ID())
	if ps != nil {
		return ps
	}
	ps = p.pools.Carve(&p.Kernel, h.ID())
	ps.p, ps.bound = p, p.cfg.PoolBytes
	ps.recovery.SetPool(&p.recBlocks)
	if ps.bound <= 0 {
		// 1.5× downlink BDP: the grant loop needs one BDP in flight to
		// fill the link, plus margin for demand estimation error.
		ps.bound = h.LinkRate().BytesIn(p.Cfg.RTT) * 3 / 2
	}
	ps.pacer.Init(p.Engine(), p.HostTick(h), ps)
	return ps
}

// Emit implements transport.Emitter.
func (ps *poolState) Emit() bool { return ps.p.emitGrant(ps) }

// weight returns flow r's scheduling weight: the advertised demand
// while fresh, the receiver's own ungranted estimate once stale, and at
// least one MSS either way so a flow with a tiny (or zeroed) backlog
// still drains rather than starving behind heavy flows forever.
func (p *Protocol) weight(r *rcvFlow, now sim.Time) int64 {
	stale := sim.Time(p.cfg.StalenessRTTs) * p.Cfg.RTT
	w := r.demand
	if now-r.demandAt > stale {
		w = r.ungranted()
	}
	if min := int64(netsim.MSS); w < min {
		w = min
	}
	return w
}

// emitGrant runs one scheduling step of the credit pool: every eligible
// flow accrues its demand weight, the largest accumulator (ties to the
// lowest flow ID) receives one MSS of credit and pays the round back.
// Returns false — idling the pacer — when no flow is eligible or the
// pool bound leaves no room for another MSS.
func (p *Protocol) emitGrant(ps *poolState) bool {
	// Recovery first: a declared-lost packet already holds pool credit,
	// so re-requesting it neither charges the pool nor waits behind it.
	for ps.recovery.Len() > 0 {
		req := ps.recovery.Pop()
		if req.r.f.Done || p.receivers.Get(req.r.f.ID) != req.r || req.r.rcvd.Get(req.seq) {
			continue // satisfied or torn down while queued
		}
		g := p.NewCtrl(netsim.Grant, req.r.f, req.seq, true)
		p.ResendGrants++
		req.r.f.Dst.Send(g)
		return true
	}
	mss := int64(netsim.MSS)
	if ps.outstanding+mss > ps.bound {
		return false
	}
	now := p.Now()
	timeout := TimeoutRTTs * p.Cfg.RTT
	var best *rcvFlow
	var total int64
	for r := ps.flows.Front(); r != nil; r = ps.flows.Next(r) {
		if r.f.Done || r.granted >= r.f.NPkts || r.silent(now, timeout) {
			continue
		}
		w := p.weight(r, now)
		r.due += w
		total += w
		if best == nil || r.due > best.due || (r.due == best.due && r.f.ID < best.f.ID) {
			best = r
		}
	}
	if best == nil {
		return false
	}
	best.due -= total
	g := p.NewCtrl(netsim.Grant, best.f, -1, true)
	g.Count = 1
	best.granted++
	best.charged += mss
	ps.outstanding += mss
	best.grantsSinceArrival++
	p.GrantsSent++
	p.GrantedPkts++
	best.f.Dst.Send(g)
	return true
}

// HandleEvent implements sim.Handler: the receiver timer fired.
func (r *rcvFlow) HandleEvent(int32, any) { r.p.onTimeout(r) }

// onTimeout is the per-flow recovery check, run every RTT (backing off
// on silent flows). Any hole whose authorization is older than the
// timeout window is declared lost and re-requested immediately — one
// resend grant per sequence, capped at one BDP per check, deduplicated
// while a retransmission is plausibly still in flight. Loss recovery
// must not wait for the flow to stall outright: under partial loss the
// tail keeps arriving, and a progress-gated timer would sit on the
// holes until the whole flow drained. A source silent for the full
// window additionally has its charged credit reclaimed, so the pool
// can serve responsive flows — a probe-sized trickle keeps the silent
// flow retryable.
func (p *Protocol) onTimeout(r *rcvFlow) {
	if r.f.Done {
		return
	}
	now := p.Now()
	window := TimeoutRTTs * p.Cfg.RTT
	overdue := r.grants.Before(now - window)
	cap := p.BDPPkts(r.f.Dst.LinkRate())
	ps := p.poolOf(r.f.Dst)
	issued := 0
	for seq := r.rcvd.NextClear(0); seq >= 0 && seq < overdue && issued < cap; seq = r.rcvd.NextClear(seq + 1) {
		if r.reissued.Get(seq) {
			if at, _ := r.reissuedAt.Get(seq); now-at < window {
				continue // retransmission still plausibly in flight
			}
		}
		r.reissuedAt.Put(seq, now)
		r.reissued.Set(seq)
		ps.recovery.Push(recReq{r: r, seq: seq})
		issued++
	}
	if issued > 0 {
		ps.pacer.Kick()
	}
	if now-r.lastArrival >= window {
		if r.charged > 0 {
			// The charged credit is evidently not coming back as data;
			// return it to the pool. Late arrivals are harmless — the
			// repayment path is gated on charged > 0.
			ps.outstanding -= r.charged
			r.charged = 0
			p.PoolReclaims++
			ps.pacer.Kick()
		}
		// No arrival since the last check: back off (reset on data).
		r.timer.BackOff()
	} else {
		r.timer.Reset()
	}
	r.grants.Note(now, r.granted)
	r.timer.Arm()
}

func (p *Protocol) finish(r *rcvFlow) {
	r.timer.Cancel()
	p.Complete(r.f)
	// A Done record never reads its reissue times again.
	r.reissuedAt.Release()
	// A short final packet repays less than its MSS charge; settle the
	// remainder and hand the credit to the next flow.
	p.poolOf(r.f.Dst).settle(r)
	// The record stays in p.receivers: a late RTS for a finished flow
	// still notes demand and kicks the pool, so dropping it here is a
	// v10 change. Its bitmaps go back to the pool: the data path, the
	// timeout and a queued recovery request stop at Done first, and the
	// scheduler sees members only.
	p.receivers.ReleaseBitmaps(r, &r.rcvd, &r.reissued)
}
