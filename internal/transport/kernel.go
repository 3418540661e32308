package transport

import (
	"fmt"

	"amrt/internal/metrics"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/slab"
	"amrt/internal/stats"
)

// Config carries the knobs every protocol shares.
type Config struct {
	// RTT is the base round-trip estimate used for BDP sizing and
	// timeout scheduling.
	RTT sim.Time
	// BlindWindow is the number of packets a new flow sends without
	// waiting for grants; 0 means one bandwidth-delay product.
	BlindWindow int

	// Collector, if non-nil, receives every completed flow.
	Collector *stats.FCTCollector
	// OnDone, if non-nil, is called when a flow completes.
	OnDone func(*Flow)
	// OnData, if non-nil, observes every data packet delivered to its
	// receiver (used by the throughput-over-time figures).
	OnData func(*Flow, *netsim.Packet)

	// Metrics, if non-nil, receives the kernel's flow counters
	// (transport.flows_started / flows_completed / data_bytes_delivered)
	// and each protocol's own instrumentation. Nil disables telemetry
	// at near-zero cost (the counters degrade to nil-safe no-ops).
	Metrics *metrics.Registry

	// Shard, if non-nil, binds the kernel to one engine shard of a
	// partitioned network: all its scheduling runs on that shard's
	// engine. Nil means shard 0 — the only shard of an unpartitioned
	// network, preserving the historical single-engine behaviour.
	Shard *netsim.Shard
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.RTT == 0 {
		c.RTT = 100 * sim.Microsecond
	}
	return c
}

// Kernel is the state every protocol embeds: the network, the shared
// config, the flow table, the per-host dispatcher, and the flow
// lifecycle (lifecycle.go) driven through the stack's Hooks.
type Kernel struct {
	Net *netsim.Network
	Cfg Config

	// flows finds a flow by the ID its packets carry (see Flow); ordered
	// lists the same flows in creation order, for whatever walks them
	// all: crash handling, the liveness watchdog, forensic dumps.
	flows   FlowTable[Flow]
	ordered []*Flow

	// flowSlab is where NewFlow carves flow records from: one array for
	// the flows Reserve announced, chunks past them.
	flowSlab slab.Slab[Flow]

	// words is the instance's pool of bitmap backing arrays: every
	// Records table of the instance draws from it.
	words WordPool

	// DataPktsBuilt counts data packets built via NewData — the
	// left-hand side of the grant-budget invariant. UnsolicitedPkts
	// counts the subset each protocol is allowed to send without a
	// grant (blind window, retransmit probes); protocols increment it
	// themselves at each ungranted send.
	DataPktsBuilt   int64
	UnsolicitedPkts int64
	// RTSReannounces counts sender-side RTS re-sends (see Announce).
	RTSReannounces int64

	// hooks is the stack's side of the flow lifecycle (see Bind);
	// dispatch is k.deliver bound once there, the one packet handler the
	// kernel installs on every host it serves.
	hooks    Hooks
	dispatch func(pkt *netsim.Packet)

	// shard is the engine shard the kernel schedules on (see Config.Shard).
	shard *netsim.Shard

	// telemetry counters; nil (and no-op) without a metrics registry
	mFlowsStarted *metrics.Counter
	mFlowsDone    *metrics.Counter
	mDataBytes    *metrics.Counter
}

// NewKernel initializes a kernel on the given network (on the shard
// named by cfg.Shard, defaulting to shard 0).
func NewKernel(net *netsim.Network, cfg Config) Kernel {
	sh := cfg.Shard
	if sh == nil {
		sh = net.Shard(0)
	}
	k := Kernel{Net: net, Cfg: cfg.withDefaults(), shard: sh}
	k.mFlowsStarted = cfg.Metrics.Counter("transport.flows_started")
	k.mFlowsDone = cfg.Metrics.Counter("transport.flows_completed")
	k.mDataBytes = cfg.Metrics.Counter("transport.data_bytes_delivered")
	return k
}

// Reserve readies the kernel for a run's flows before the first one is
// registered, so that registering them costs no allocation per flow: the
// created flows NewFlow will make are carved from one array, so are the
// engine events of their starts (Release), and the flow index and
// OrderedFlows are sized for IDs up to maxID and for the known flows,
// created and adopted. Past the reservation flows come from chunks and
// the index grows, as they do without one.
func (k *Kernel) Reserve(created, known int, maxID netsim.FlowID) {
	if created > 0 {
		k.flowSlab.Reserve(created)
		k.Engine().ReserveEvents(created)
	}
	k.flows.recs = grown(k.flows.recs, int(maxID)+1)
	if known > cap(k.ordered) {
		k.ordered = append(make([]*Flow, 0, known), k.ordered...)
	}
}

// Engine returns the simulation engine of the kernel's shard.
func (k *Kernel) Engine() *sim.Engine { return k.shard.Eng() }

// Shard returns the engine shard the kernel is bound to.
func (k *Kernel) Shard() *netsim.Shard { return k.shard }

// OwnsReceiver reports whether this kernel's shard owns the flow's
// receiver-side state — the home shard that may write Done, End,
// Outcome, and LastProgress. See the field-ownership contract on Flow.
func (k *Kernel) OwnsReceiver(f *Flow) bool { return k.shard.Owns(f.Dst) }

// OwnsSender reports whether this kernel's shard owns the flow's
// sender-side state — the shard that may write SendNext and the
// Sender* flags and drive the RTS re-announce chain.
func (k *Kernel) OwnsSender(f *Flow) bool { return k.shard.Owns(f.Src) }

// Now returns the current virtual time on the kernel's shard.
func (k *Kernel) Now() sim.Time { return k.shard.Eng().Now() }

// NewFlow builds a Flow for the given endpoints and registers it in the
// flow table under id, which must be positive and unused: the table is
// indexed by it, so callers number their flows 1..N.
func (k *Kernel) NewFlow(id netsim.FlowID, src, dst *netsim.Host, size int64, start sim.Time) *Flow {
	if size <= 0 {
		panic(fmt.Sprintf("transport: flow size %d must be positive", size))
	}
	if src == dst {
		panic("transport: flow source equals destination")
	}
	if id <= 0 {
		panic(fmt.Sprintf("transport: flow id %d must be positive", id))
	}
	if k.flows.Get(id) != nil {
		panic(fmt.Sprintf("transport: duplicate flow id %d", id))
	}
	f := k.flowSlab.One() // flows live as long as the run
	*f = Flow{
		ID: id, Src: src, Dst: dst, Size: size, Start: start,
		NPkts: int32((size + netsim.MSS - 1) / netsim.MSS),
	}
	k.flows.Put(id, f)
	k.ordered = append(k.ordered, f)
	k.mFlowsStarted.Inc()
	return f
}

// Flow returns the flow registered under id with this kernel, or nil.
func (k *Kernel) Flow(id netsim.FlowID) *Flow { return k.flows.Get(id) }

// Register adds a flow created by another shard's kernel to this
// kernel's flow table (the receiver side of a cross-shard flow). It
// does not count toward flows_started — the creating kernel already
// did. Registering a flow this kernel already holds is a no-op, so
// single-shard setups can run the same adopt path as sharded ones.
func (k *Kernel) Register(f *Flow) {
	if have := k.flows.Get(f.ID); have == f {
		return
	} else if have != nil {
		panic(fmt.Sprintf("transport: duplicate flow id %d", f.ID))
	}
	k.flows.Put(f.ID, f)
	k.ordered = append(k.ordered, f)
}

// OrderedFlows returns the flows in creation order. Callers must not
// mutate the slice.
func (k *Kernel) OrderedFlows() []*Flow { return k.ordered }

// PktSize returns the wire size of data packet seq of flow f: MSS for
// all but a short final packet.
func (k *Kernel) PktSize(f *Flow, seq int32) int {
	if seq == f.NPkts-1 {
		if rem := int(f.Size % netsim.MSS); rem != 0 {
			return rem
		}
	}
	return netsim.MSS
}

// BDPPkts returns the bandwidth-delay product in MSS packets at rate,
// at least 1.
func (k *Kernel) BDPPkts(rate sim.Rate) int {
	n := int(rate.BytesIn(k.Cfg.RTT)) / netsim.MSS
	if n < 1 {
		n = 1
	}
	return n
}

// BlindPkts returns how many packets flow f may send before any grant:
// the configured blind window (default one BDP at the sender NIC rate),
// capped at the flow length.
func (k *Kernel) BlindPkts(f *Flow) int32 {
	w := k.Cfg.BlindWindow
	if w <= 0 {
		w = k.BDPPkts(f.Src.LinkRate())
	}
	if int32(w) > f.NPkts {
		return f.NPkts
	}
	return int32(w)
}

// SendBlind sends f's unsolicited first window at priority prio, counts
// it against the grant budget, and moves the send cursor past it. An
// unresponsive sender's window is empty.
func (k *Kernel) SendBlind(f *Flow, prio uint8) {
	if f.Unresponsive {
		return
	}
	blind := k.BlindPkts(f)
	for ; f.SendNext < blind; f.SendNext++ {
		f.Src.Send(k.NewData(f, f.SendNext, prio))
	}
	k.UnsolicitedPkts += int64(blind)
}

// Sender is the lookup every stack's sender handler starts with: flow
// id if this kernel owns its sender and that sender has started, is
// responsive and has not crashed (SenderDead); otherwise nil.
func (k *Kernel) Sender(id netsim.FlowID) *Flow {
	f := k.flows.Get(id)
	if f == nil || !k.OwnsSender(f) || !f.SenderStarted || f.Unresponsive || f.SenderDead {
		return nil
	}
	return f
}

// ResendData builds data packet seq of f for a resend request and moves
// the send cursor past seq if it was not there yet (a lost grant may
// leave a named packet unsent): new data resumes after it.
func (k *Kernel) ResendData(f *Flow, seq int32, prio uint8) *netsim.Packet {
	if seq >= f.SendNext {
		f.SendNext = seq + 1
	}
	return k.NewData(f, seq, prio)
}

// NextData builds f's next never-sent data packet and advances the send
// cursor, or returns nil once all NPkts have been sent.
func (k *Kernel) NextData(f *Flow, prio uint8) *netsim.Packet {
	if f.SendNext >= f.NPkts {
		return nil
	}
	f.SendNext++
	return k.NewData(f, f.SendNext-1, prio)
}

// NewData builds data packet seq of flow f. CE starts true: the
// anti-ECN convention initializes the bit to "spare bandwidth" and
// switches AND their observations in (protocols without markers simply
// ignore it). The packet comes from the kernel shard's free list; the
// network recycles it on delivery or drop.
func (k *Kernel) NewData(f *Flow, seq int32, prio uint8) *netsim.Packet {
	p := k.shard.NewPacket()
	p.Flow, p.Type, p.Seq = f.ID, netsim.Data, seq
	p.Size, p.Prio = k.PktSize(f, seq), prio
	p.Src, p.Dst = f.Src.ID(), f.Dst.ID()
	p.CE, p.FlowSize = true, f.Size
	k.DataPktsBuilt++
	return p
}

// DataPacketsSent returns the number of data packets built so far —
// the spend side of the audit grant-budget ledger.
func (k *Kernel) DataPacketsSent() int64 { return k.DataPktsBuilt }

// NewCtrl builds a control packet of the given type for flow f.
// toSender directs it at the flow source (grants, tokens, pulls);
// otherwise at the flow destination (RTS). The packet comes from the
// kernel shard's free list; the network recycles it on delivery or drop.
func (k *Kernel) NewCtrl(typ netsim.PacketType, f *Flow, seq int32, toSender bool) *netsim.Packet {
	p := k.shard.NewPacket()
	p.Flow, p.Type, p.Seq = f.ID, typ, seq
	p.Size, p.Prio = netsim.ControlSize, netsim.PrioControl
	p.FlowSize = f.Size
	if toSender {
		p.Src, p.Dst = f.Dst.ID(), f.Src.ID()
	} else {
		p.Src, p.Dst = f.Src.ID(), f.Dst.ID()
	}
	return p
}

// Complete marks f done at the current time and reports it.
func (k *Kernel) Complete(f *Flow) {
	if f.Done {
		panic(fmt.Sprintf("transport: %v completed twice", f))
	}
	f.Done = true
	f.End = k.Now()
	f.Outcome = OutcomeCompleted // a late finish overrides a stall report
	k.mFlowsDone.Inc()
	if c := k.Cfg.Collector; c != nil {
		c.Add(f.Size, f.Start, f.End)
	}
	if k.Cfg.OnDone != nil {
		k.Cfg.OnDone(f)
	}
	// Shadow the completion on the sender side: one lookahead later the
	// sender's shard sets SenderDone under the deterministic signal key,
	// giving sender-local code (the RTS re-announce chain, crash
	// handling) a flag it can read without touching home-shard state. On
	// one shard the self-signal has the same latency and order, so the
	// flag's trajectory is partition-independent.
	k.shard.SignalEvent(f.Dst, f.Src, k, opSenderDone, f)
}

// Abort terminates f without completing it: the flow is marked Done
// with Outcome KilledByCrash and is excluded from FCT collection and
// the OnDone hook. Protocols call it when a crash destroys an
// endpoint's state beyond recovery; only the kernel owning the flow's
// receiver side may call it (the sender-side instance sets SenderDone
// in its own crash branch instead — see the ownership contract on
// Flow). Aborting an already-done flow is a no-op.
func (k *Kernel) Abort(f *Flow) {
	if f.Done {
		return
	}
	f.Done = true
	f.End = k.Now()
	f.Outcome = OutcomeKilledByCrash
}

// DeliverData notes forward progress and runs the OnData hook.
// Resumed progress clears a watchdog stall report.
func (k *Kernel) DeliverData(f *Flow, pkt *netsim.Packet) {
	f.LastProgress = k.Now()
	if f.Outcome == OutcomeStalled {
		f.Outcome = OutcomeRunning
	}
	k.mDataBytes.Add(int64(pkt.Size))
	if k.Cfg.OnData != nil {
		k.Cfg.OnData(f, pkt)
	}
}

// deliver is the packet handler of every host the kernel serves: it
// fans a delivery out to the stack's receiver-side handler (data,
// headers, RTS) or its sender-side one (grants, tokens, pulls, acks,
// nacks). A sender-bound delivery marks Flow.SenderHeard, the
// sender-local signal that stops RTS re-announcement without reading
// receiver-shard state.
func (k *Kernel) deliver(pkt *netsim.Packet) {
	switch pkt.Type {
	case netsim.Data, netsim.Header, netsim.RTS:
		k.hooks.ToReceiver(pkt)
	default:
		if f := k.Flow(pkt.Flow); f != nil {
			f.SenderHeard = true
		}
		k.hooks.ToSender(pkt)
	}
}

// hostsOwned returns how many of the network's hosts the kernel's shard
// owns: the most per-host records an instance can build.
func (k *Kernel) hostsOwned() (n int) {
	for _, h := range k.Net.Hosts() {
		if k.shard.Owns(h) {
			n++
		}
	}
	return n
}
