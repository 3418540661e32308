// Package core implements AMRT, the paper's contribution: a
// receiver-driven transport in which switches set the ECN CE bit on data
// packets dequeued after an idle gap of at least one MSS (anti-ECN,
// §4.1), receivers echo the bit on the grants they generate one-per-data
// packet (§4.2), and senders answer a marked grant with two data packets
// instead of one (§4.3), filling spare bandwidth within a bounded number
// of RTTs while the 8-packet switch data queue keeps latency near zero
// (§6).
package core

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/transport"
)

// Fixed switch and recovery sizes; no experiment varies them.
const (
	// CtrlQueueCap bounds the switch control band, far above the data
	// cap: control packets are small and carry the grant clock.
	CtrlQueueCap = 256
	// RecoveryCap bounds how many recovery grants one timeout tick may
	// issue per flow: re-blasting a whole lost blind window into
	// 8-packet queues would only reproduce the loss.
	RecoveryCap = 16
)

// Config parameterizes AMRT: the knobs the ablation figures vary.
type Config struct {
	transport.Config

	// DataQueueCap is the switch data-queue threshold beyond which data
	// packets are dropped (§6; default 8).
	DataQueueCap int
	// GrantBurst is the number of packets a marked grant triggers
	// (default 2, the paper's rule; the ablation sweeps it).
	GrantBurst int
	// GapFactor and Combine configure the anti-ECN marker (see
	// netsim.AntiECNMarker; defaults 1 and AND).
	GapFactor float64
	Combine   netsim.CombineMode
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{DataQueueCap: 8, GrantBurst: 2, GapFactor: 1, Combine: netsim.CombineAND}
}

// WithDefaults returns the config with zero fields replaced by the
// paper's defaults.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.DataQueueCap == 0 {
		c.DataQueueCap = d.DataQueueCap
	}
	if c.GrantBurst == 0 {
		c.GrantBurst = d.GrantBurst
	}
	if c.GapFactor == 0 {
		c.GapFactor = d.GapFactor
	}
	return c
}

// SwitchQueue builds the AMRT switch egress queue: strict priority with
// a roomy control band and the paper's tiny data cap.
func (c Config) SwitchQueue(s *netsim.Slabs) netsim.Queue {
	cc := c.WithDefaults()
	return s.NewPriority(CtrlQueueCap, cc.DataQueueCap, cc.DataQueueCap)
}

// HostQueue builds the host NIC queue: large, since the sender may
// legitimately buffer its own blind window.
func HostQueue(s *netsim.Slabs) netsim.Queue { return s.NewPriority(1024) }

// NewMarker builds the anti-ECN egress marker.
func (c Config) NewMarker(s *netsim.Slabs) netsim.DequeueMarker {
	cc := c.WithDefaults()
	return s.NewAntiECNMarker(cc.GapFactor, cc.Combine)
}

// Protocol is an AMRT instance bound to one network.
type Protocol struct {
	transport.Kernel
	cfg       Config
	receivers transport.Records[receiver, *receiver]

	// GrantsSent and MarkedGrants count receiver-side grant traffic.
	GrantsSent   int64
	MarkedGrants int64
	// RecoveryGrants counts timeout-driven reissues.
	RecoveryGrants int64

	// grantsInFlight tracks, over all live receivers, granted packets
	// whose data has not yet arrived. Maintained incrementally at the
	// grant/arrival/finish sites so the telemetry sampler reads it in
	// O(1) instead of scanning the receiver table every tick.
	grantsInFlight int64

	// grantPacers pace normal grants per receiving host at the downlink
	// packet rate, the standard receiver-driven discipline (§4.2 builds
	// on "the existing receiver-driven transmission mechanism"):
	// echoing a burst of arrivals as an instantaneous burst of grants
	// would make the sender burst straight into the 8-packet switch
	// caps.
	grantPacers transport.HostTable[grantPacer]

	// recPacers pace recovery grants per receiving host at the downlink
	// packet rate. Without pacing, the roughly synchronized per-flow
	// timeout ticks of many flows fire their reissues as one burst into
	// the 8-packet switch queues, the retransmissions drop each other,
	// and the recovery tail crawls.
	recPacers transport.HostTable[recPacer]

	// The pacers' queues and the records' reissue times draw their
	// blocks from these, shared by every host and flow of the instance.
	grantBlocks transport.FIFOPool[*netsim.Packet]
	recBlocks   transport.FIFOPool[recReq]
	reissues    transport.SparsePool[sim.Time]
}

// grantPacer paces one receiving host's grants; it is its pacer's
// Emitter.
type grantPacer struct {
	pacer transport.Pacer
	queue transport.FIFO[*netsim.Packet]
	h     *netsim.Host
}

// recPacer paces one receiving host's recovery grants; it is its
// pacer's Emitter.
type recPacer struct {
	pacer transport.Pacer
	queue transport.FIFO[recReq]
	p     *Protocol
}

// recReq is a hole waiting in a recovery pacer's queue. The record may
// end, and be reused by another flow, while the request waits: inc is
// the incarnation it was queued under (it fits the padding after seq).
type recReq struct {
	r   *receiver
	seq int32
	inc uint32
}

type receiver struct {
	transport.Record[receiver]
	p       *Protocol // for HandleEvent: the record is its own timeout event
	f       *transport.Flow
	rcvd    transport.Bitmap
	granted int32 // packets authorized so far, including the blind window
	// grants notes (time, granted) at each timeout tick. A hole is
	// overdue only if it was already granted at a note older than the
	// overdue window — §6's 1×RTT rule measured from when the grant
	// could have been answered, with the window following the *observed*
	// grant→arrival delay: a fixed margin under queueing declares
	// in-flight packets lost, and the spurious retransmissions feed the
	// very queues that delayed them.
	grants transport.GrantRing
	// srtt is the EWMA of observed recovery-grant→arrival delays.
	srtt sim.Time
	// reissuedAt remembers when each hole's recovery grant was emitted
	// so a still-in-flight retransmission is not duplicated; the
	// reissued bit marks exactly its keys (except inside onTimeout's
	// scan, which narrows it to the reissues still in flight), so an
	// arrival searches reissuedAt only on a hit. inRecovery marks holes
	// waiting in the recovery pacer's queue.
	reissuedAt   transport.Sparse[sim.Time]
	reissued     transport.Bitmap
	inRecovery   transport.Bitmap
	lastProgress sim.Time
	timer        transport.RecvTimer // runs onTimeout
}

// overdueWindow is how long a granted packet may be outstanding before
// the receiver reissues its grant: twice the observed grant→arrival
// delay, never less than 3 base RTTs until a sample exists.
func (r *receiver) overdueWindow(baseRTT sim.Time) sim.Time {
	w := 3 * baseRTT
	if r.srtt > 0 && 2*r.srtt > w {
		w = 2 * r.srtt
	}
	return w
}

// New creates an AMRT protocol on the network.
func New(net *netsim.Network, cfg Config) *Protocol {
	p := &Protocol{Kernel: transport.NewKernel(net, cfg.Config), cfg: cfg.WithDefaults()}
	p.Bind(transport.Hooks{
		ToSender: p.onSenderPkt, ToReceiver: p.onReceiverPkt, Start: p.startFlow,
		DropReceiver: p.dropRcvState, HostCrashed: p.hostCrashed,
	})
	if m := cfg.Metrics; m != nil {
		m.CounterFunc("amrt.grants_sent", func() int64 { return p.GrantsSent })
		m.CounterFunc("amrt.marked_grants", func() int64 { return p.MarkedGrants })
		m.CounterFunc("amrt.recovery_grants", func() int64 { return p.RecoveryGrants })
		m.CounterFunc("amrt.rts_reannounces", func() int64 { return p.RTSReannounces })
		// Grants whose data has not yet arrived, summed over live
		// flows (maintained incrementally; see grantsInFlight).
		m.Series("amrt.grants_in_flight", func(sim.Time) float64 {
			return float64(p.grantsInFlight)
		})
	}
	return p
}

// Name identifies the protocol in reports.
func (p *Protocol) Name() string { return "AMRT" }

// LiveReceivers reports how many receiver records the instance holds.
func (p *Protocol) LiveReceivers() int { return p.receivers.Len() }

func (p *Protocol) startFlow(f *transport.Flow) {
	p.Announce(f)
	// Blind first window (§6): start immediately rather than waiting a
	// full RTT for grants; the tiny switch data cap bounds the damage.
	p.SendBlind(f, netsim.PrioData)
}

// GrantAuthority returns the number of data packets the receivers'
// control traffic has authorized so far: the unsolicited allowance plus
// one per unmarked grant, GrantBurst per marked grant, and one per
// recovery grant. The audit grant-budget invariant is
// DataPacketsSent ≤ GrantAuthority.
func (p *Protocol) GrantAuthority() int64 {
	return p.UnsolicitedPkts +
		(p.GrantsSent - p.MarkedGrants) +
		p.MarkedGrants*int64(p.cfg.GrantBurst) +
		p.RecoveryGrants
}

// dropRcvState forgets flow f's receiver (timer cancelled,
// grants-in-flight ledger rebalanced). No-op if no state exists.
func (p *Protocol) dropRcvState(f *transport.Flow) {
	r := p.receivers.Get(f.ID)
	if r == nil {
		return
	}
	r.timer.Cancel()
	// No queued recovery request touches r again: End raises its
	// incarnation (and a crashed receiver's queue is emptied besides,
	// hostCrashed).
	r.reissuedAt.Release()
	p.grantsInFlight -= int64(r.granted) - int64(r.rcvd.Count())
	p.receivers.End(f.ID)
}

// hostCrashed empties the crashed host's software pacers: queued grants
// die with it, and the packets go back to the free list (they were never
// injected). Pacer state exists only in the instance owning the host,
// so the lookups are nil everywhere else.
func (p *Protocol) hostCrashed(h *netsim.Host) {
	if gp := p.grantPacers.Get(h.ID()); gp != nil {
		for gp.queue.Len() > 0 {
			h.Shard().ReleasePacket(gp.queue.Pop())
		}
	}
	if rp := p.recPacers.Get(h.ID()); rp != nil {
		rp.queue.Reset()
	}
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
		// Recovery grant: (re)transmit the named packet.
		f.Src.Send(p.ResendData(f, pkt.Seq, netsim.PrioData))
		return
	}
	// Normal grant: a marked grant (ECN-Echo set) authorizes GrantBurst
	// packets, an unmarked one a single packet. The receiver bumped its
	// own accounting by the same amount when it set Echo.
	n := 1
	if pkt.Echo {
		n = p.cfg.GrantBurst
	}
	for ; n > 0; n-- {
		if out := p.NextData(f, netsim.PrioData); out != nil {
			f.Src.Send(out)
		}
	}
}

func (p *Protocol) onReceiverPkt(pkt *netsim.Packet) {
	if pkt.Type != netsim.RTS && pkt.Type != netsim.Data {
		return
	}
	// An RTS only has to leave a record behind; if it is lost, the first
	// data packet does (both carry the flow size).
	r := transport.Receiver(&p.Kernel, &p.receivers, pkt.Flow, p.newReceiver)
	if r == nil || r.f.Done || pkt.Type == netsim.RTS {
		return
	}
	// Nearly every arrival answers no reissued grant: the bit says so
	// without a scan. (The inRecovery bit cannot stand in for it — it is
	// cleared just before recPacer.Emit records the reissue.)
	if r.reissued.Clear(pkt.Seq) {
		at, _ := r.reissuedAt.Get(pkt.Seq)
		// Recovery round-trip sample: grant reissue → arrival.
		sample := p.Now() - at
		if r.srtt == 0 {
			r.srtt = sample
		} else {
			r.srtt = (7*r.srtt + sample) / 8
		}
		r.reissuedAt.Delete(pkt.Seq)
	}
	if !r.rcvd.Set(pkt.Seq) {
		return // duplicate: no grant, no progress
	}
	p.grantsInFlight--
	r.lastProgress = p.Now()
	p.DeliverData(r.f, pkt)
	if r.rcvd.Full() {
		p.finish(r)
		return
	}
	// One grant per arriving data packet while ungranted packets
	// remain; copy the CE bit into the grant's ECN-Echo (§4.2).
	want := r.f.NPkts - r.granted
	if want <= 0 {
		return
	}
	n := int32(1)
	if pkt.CE && int32(p.cfg.GrantBurst) <= want {
		n = int32(p.cfg.GrantBurst)
	}
	g := p.NewCtrl(netsim.Grant, r.f, -1, true)
	g.Echo = pkt.CE && n > 1
	r.granted += n
	p.grantsInFlight += int64(n)
	p.GrantsSent++
	if g.Echo {
		p.MarkedGrants++
	}
	p.sendGrantPaced(r.f.Dst, g)
}

// sendGrantPaced queues a grant on the receiving host's pacer.
func (p *Protocol) sendGrantPaced(h *netsim.Host, g *netsim.Packet) {
	gp := p.grantPacers.Get(h.ID())
	if gp == nil {
		gp = p.grantPacers.Carve(&p.Kernel, h.ID())
		gp.h = h
		gp.queue.SetPool(&p.grantBlocks)
		gp.pacer.Init(p.Engine(), p.HostTick(h), gp)
	}
	gp.queue.Push(g)
	gp.pacer.Kick()
}

// Emit implements transport.Emitter: send the host's next queued grant.
func (gp *grantPacer) Emit() bool {
	if gp.queue.Len() == 0 {
		return false
	}
	gp.h.Send(gp.queue.Pop())
	return true
}

// newReceiver fills in f's receiver record (transport.Receiver takes it
// from the pool and stores it): the blind window counts as granted, and
// the §6 timeout starts.
func (p *Protocol) newReceiver(r *receiver, f *transport.Flow) {
	r.p, r.f = p, f
	r.granted = p.BlindPkts(f)
	r.lastProgress = p.Now()
	p.receivers.InitBitmaps(r, f.NPkts, &r.rcvd, &r.reissued, &r.inRecovery)
	r.reissuedAt.SetPool(&p.reissues)
	p.grantsInFlight += int64(r.granted)
	p.Heard(f)
	r.timer.Init(&p.Kernel, r)
	r.timer.Arm()
}

// HandleEvent implements sim.Handler: the receiver timer fired.
func (r *receiver) HandleEvent(int32, any) { r.p.onTimeout(r) }

// onTimeout implements §6 loss recovery: every RTT, any sequence whose
// grant (or blind-window slot) is more than one RTT old and has not
// arrived is handed to the receiving host's recovery pacer, which
// reissues grants at the downlink packet rate.
func (p *Protocol) onTimeout(r *receiver) {
	if r.f.Done {
		return
	}
	now := p.Now()
	window := r.overdueWindow(p.Cfg.RTT)
	overdue := r.grants.Before(now - window)
	rp := p.recPacerFor(r.f.Dst)
	// For the scan, the reissued bit marks only the reissues within the
	// window, so a hole costs a bit test rather than a reissuedAt search;
	// the full set is restored right after.
	r.reissuedAt.Each(func(seq int32, at sim.Time) {
		if now-at >= window {
			r.reissued.Clear(seq)
		}
	})
	queued := 0
	for seq := r.rcvd.NextClear(0); seq >= 0 && seq < overdue && queued < RecoveryCap; seq = r.rcvd.NextClear(seq + 1) {
		if r.inRecovery.Get(seq) {
			continue // already waiting in the pacer queue
		}
		if r.reissued.Get(seq) {
			continue // retransmission still plausibly in flight
		}
		r.inRecovery.Set(seq)
		rp.queue.Push(recReq{r: r, seq: seq, inc: r.Incarnation()})
		queued++
	}
	r.reissuedAt.Each(func(seq int32, _ sim.Time) { r.reissued.Set(seq) })
	if queued > 0 {
		rp.pacer.Kick()
	}
	r.grants.Note(now, r.granted)
	if queued == 0 && now-r.lastProgress > 8*p.Cfg.RTT {
		r.timer.BackOff()
	} else {
		r.timer.Reset()
	}
	r.timer.Arm()
}

// recPacerFor returns (creating if needed) the host's recovery pacer.
func (p *Protocol) recPacerFor(h *netsim.Host) *recPacer {
	rp := p.recPacers.Get(h.ID())
	if rp == nil {
		rp = p.recPacers.Carve(&p.Kernel, h.ID())
		rp.p = p
		rp.queue.SetPool(&p.recBlocks)
		rp.pacer.Init(p.Engine(), p.HostTick(h), rp)
	}
	return rp
}

// Emit implements transport.Emitter: reissue one queued recovery grant,
// skipping requests whose record ended or that were satisfied while
// waiting.
func (rp *recPacer) Emit() bool {
	p := rp.p
	for rp.queue.Len() > 0 {
		req := rp.queue.Pop()
		if req.inc != req.r.Incarnation() {
			continue // the record ended; another flow may own it now
		}
		req.r.inRecovery.Clear(req.seq)
		if req.r.f.Done || req.r.rcvd.Get(req.seq) {
			continue
		}
		req.r.reissuedAt.Put(req.seq, p.Now())
		req.r.reissued.Set(req.seq)
		g := p.NewCtrl(netsim.Grant, req.r.f, req.seq, true)
		req.r.f.Dst.Send(g)
		p.RecoveryGrants++
		return true
	}
	return false
}

func (p *Protocol) finish(r *receiver) {
	r.timer.Cancel()
	r.reissuedAt.Release()
	// Retire any residual grant authorization (a blind window wider than
	// the flow) so grantsInFlight reflects live flows only.
	p.grantsInFlight -= int64(r.granted) - int64(r.rcvd.Count())
	p.Complete(r.f)
	// The record ends with the flow: the lookup answers nil for a Done
	// flow, and a request still queued in the recovery pacer is skipped
	// on its incarnation before it could touch the record's next life.
	p.receivers.End(r.f.ID)
}
