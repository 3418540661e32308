package topo

import (
	"fmt"
	"strconv"
	"strings"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// Overlay carries the per-stack pieces every builder in this package
// weaves into the topology: the queue disciplines and the optional
// egress marker. It is the only way they reach a topology; the
// experiment runner passes its stack's overlay (switch queue factory
// wrapped by the fault plan's loss processes) to Builder.Build.
type Overlay struct {
	// HostQueue builds host NIC egress queues; nil means a 128-packet
	// drop-tail.
	HostQueue netsim.QueueFactory
	// SwitchQueue builds switch egress queues; nil means a 128-packet
	// drop-tail. Protocols override it (trimming for NDP, priority+cap
	// for AMRT, ...).
	SwitchQueue netsim.QueueFactory
	// Marker, if non-nil, is called per switch egress port to attach a
	// dequeue marker (AMRT's anti-ECN marker), with the switch ports'
	// slabs to carve it from. Host NICs never mark.
	Marker func(s *netsim.Slabs) netsim.DequeueMarker
}

// wiring lays an overlay on a fresh network. Every builder creates its
// nodes through newSwitch and host and cables them only through host
// and link, so the queue defaults, the marker-placement rule and the
// order in which the queue factories are called — the fault plan seeds
// the k-th switch queue from k — live here once. f is the fabric under
// construction: host fills its Hosts and HostDownlinks.
//
// A builder gives newWiring its fabric's node and link counts, so the
// set-up allocates per kind of object, not per object: the network
// carves its nodes, ports and switch tables from arrays of those sizes
// (netsim.Network.Reserve), each role's queues and markers come from
// its own netsim.Slabs, and every node name is a slice of one buffer.
type wiring struct {
	net   *netsim.Network
	f     *Fabric
	delay sim.Time // one-way propagation delay of every link
	ov    Overlay

	hostSlabs, switchSlabs *netsim.Slabs
	names                  strings.Builder
}

// newWiring creates the network for a fabric of hosts hosts (one link
// each to a switch), switches switches and links switch-to-switch
// links, with its delivery jitter (none when jitter is 0), and fills
// the overlay's nil queue factories with the 128-packet drop-tail.
func newWiring(ov Overlay, delay, jitter sim.Time, jitterSeed int64, hosts, switches, links int) wiring {
	dropTail := func(s *netsim.Slabs) netsim.Queue { return s.NewDropTail(128) }
	if ov.HostQueue == nil {
		ov.HostQueue = dropTail
	}
	if ov.SwitchQueue == nil {
		ov.SwitchQueue = dropTail
	}
	n := netsim.New()
	ports := 2 * (hosts + links)
	n.Reserve(hosts, switches, ports)
	w := wiring{
		net: n, delay: delay, ov: ov,
		f: &Fabric{
			Net:           n,
			Hosts:         make([]*netsim.Host, 0, hosts),
			HostDownlinks: make([]*netsim.Port, 0, hosts),
			Switches:      make([]*netsim.Switch, 0, switches),
		},
		hostSlabs:   netsim.NewSlabs(hosts),
		switchSlabs: netsim.NewSlabs(ports - hosts),
	}
	if jitter > 0 {
		w.net.SetJitter(jitter, jitterSeed)
	}
	return w
}

// name returns prefix followed by idx joined with dots, "h1.0.3" for
// ("h", 1, 0, 3). Names are appended to one buffer, sized at the first
// name for about 12 bytes a node, and sliced from it: a strings.Builder
// never rewrites what it holds, so an earlier name stays valid when the
// buffer grows.
func (w *wiring) name(prefix string, idx ...int) string {
	if w.names.Cap() == 0 {
		w.names.Grow(12 * (cap(w.f.Hosts) + cap(w.f.Switches)))
	}
	start := w.names.Len()
	w.names.WriteString(prefix)
	var digits [20]byte
	for i, x := range idx {
		if i > 0 {
			w.names.WriteByte('.')
		}
		w.names.Write(strconv.AppendInt(digits[:0], int64(x), 10))
	}
	return w.names.String()[start:]
}

// newSwitch adds a switch with room for ports egress ports.
func (w *wiring) newSwitch(name string, ports int) *netsim.Switch {
	s := w.net.NewSwitch(name)
	s.Reserve(ports)
	return s
}

// host adds a host named name under sw with a link of the given rate
// each way: its NIC gets a host queue, the switch's downlink toward it
// a switch queue and the marker. The host and its downlink go next in
// the fabric's host index order; host returns the downlink.
func (w *wiring) host(sw *netsim.Switch, name string, rate sim.Rate) *netsim.Port {
	h := w.net.NewHost(name)
	w.net.AttachPort(h, sw, rate, w.delay, w.ov.HostQueue(w.hostSlabs))
	down := w.net.AttachPort(sw, h, rate, w.delay, w.ov.SwitchQueue(w.switchSlabs))
	w.mark(down)
	w.f.Hosts = append(w.f.Hosts, h)
	w.f.HostDownlinks = append(w.f.HostDownlinks, down)
	return down
}

// link joins two switches with a port each way, each with a switch
// queue and the marker, and returns the a→b port.
func (w *wiring) link(a, b *netsim.Switch, rate sim.Rate) *netsim.Port {
	ab := w.net.AttachPort(a, b, rate, w.delay, w.ov.SwitchQueue(w.switchSlabs))
	ba := w.net.AttachPort(b, a, rate, w.delay, w.ov.SwitchQueue(w.switchSlabs))
	w.mark(ab)
	w.mark(ba)
	return ab
}

// mark attaches the overlay's marker to a switch egress port. Host NICs
// never mark: §3 places anti-ECN marking in switches, and a sender's
// own back-to-back output would otherwise clear CE before the network
// ever saw the packet.
func (w *wiring) mark(p *netsim.Port) {
	if w.ov.Marker != nil {
		p.Marker = w.ov.Marker(w.switchSlabs)
	}
}

// Fabric is a built topology in the shape the experiment runner drives:
// the network, the hosts in deterministic index order, the per-host
// bottleneck downlinks, and every switch (for trim counting and
// forensics). All builders in this package — leaf–spine, k-ary
// fat-tree, three-tier Clos and the paper's small topologies (Small) —
// produce one.
type Fabric struct {
	// Net is the built network with shortest-path ECMP routes installed.
	Net *netsim.Network
	// Hosts lists every host; workload FlowSpec Src/Dst index into it.
	Hosts []*netsim.Host
	// HostDownlinks[i] is the last-hop switch egress port toward
	// Hosts[i] — the bottleneck port the utilization metric monitors.
	HostDownlinks []*netsim.Port
	// Switches lists every switch of the fabric. Leaf–spine lists the
	// leaves, then the spines; fat-tree and Clos list them pod by pod,
	// access switches before aggregation, with the cores last.
	Switches []*netsim.Switch
	// AccessRate is the host access-link rate, the denominator of the
	// per-downlink utilization metric.
	AccessRate sim.Rate
	// BaseRTT is the worst-case propagation round-trip between two
	// hosts (no queueing or serialization), used for BDP sizing and
	// protocol timeout scheduling.
	BaseRTT sim.Time

	// Senders, Receivers and Bottlenecks are a small topology's roles,
	// in the order its figure discusses them: the figure's flow i runs
	// from Senders[i] to Receivers[i] (Small.Sender and Small.Receiver
	// give their host indices), and Bottlenecks are the egress ports it
	// watches. The datacenter fabrics leave them empty.
	Senders, Receivers []*netsim.Host
	Bottlenecks        []*netsim.Port
}

// Downlink returns the last-hop switch egress port feeding host i.
func (f *Fabric) Downlink(i int) *netsim.Port { return f.HostDownlinks[i] }

// RTT returns the fabric's worst-case propagation round-trip time.
func (f *Fabric) RTT() sim.Time { return f.BaseRTT }

// Builder constructs a Fabric from a parameterized topology config with
// a protocol stack's overlay applied. LeafSpineConfig, FatTreeConfig,
// and ClosConfig implement it; the experiment runner and the sweep
// cache key are written against this interface so new fabric families
// plug in without touching either.
type Builder interface {
	// Build constructs the fabric on a fresh network, applies the
	// overlay, and installs shortest-path ECMP routes. It panics on
	// invalid dimensions (validate first via the amrt API for
	// error-returning checks).
	Build(ov Overlay) *Fabric
	// Hosts returns the host count the built fabric will have.
	Hosts() int
	// AccessRate returns the host access-link rate.
	AccessRate() sim.Rate
	// Canonical returns a deterministic, collision-free encoding of
	// every field that influences simulation results; the sweep cache
	// key folds it in (see docs/API.md).
	Canonical() string
}

// canon encodes a topology kind plus alternating name/value pairs into
// the canonical cache-key form "kind:name=value,name=value,...".
// Values must be int, int64, or sim-typed integers already converted.
func canon(kind string, pairs ...any) string {
	var b strings.Builder
	b.WriteString(kind)
	sep := ":"
	for i := 0; i+1 < len(pairs); i += 2 {
		b.WriteString(sep)
		sep = ","
		b.WriteString(pairs[i].(string))
		b.WriteByte('=')
		switch v := pairs[i+1].(type) {
		case int:
			b.WriteString(strconv.Itoa(v))
		case int64:
			b.WriteString(strconv.FormatInt(v, 10))
		default:
			panic(fmt.Sprintf("topo: canon value %v must be int or int64", v))
		}
	}
	return b.String()
}
