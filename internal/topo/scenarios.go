package topo

import (
	"fmt"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// shape names one of the small topologies.
type shape uint8

const (
	chainShape shape = iota + 1
	fanShape
	testbedDynamicShape
	testbedMultiBottleneckShape
)

var shapeNames = [...]string{
	chainShape:                  "chain",
	fanShape:                    "fan",
	testbedDynamicShape:         "testbed-dynamic",
	testbedMultiBottleneckShape: "testbed-multibottleneck",
}

// Small is one of the small topologies of the paper's motivation (§2)
// and testbed (§7) figures as a Builder. Chain, Fan, TestbedDynamic and
// TestbedMultiBottleneck return one at its figure's settings; the link
// fields may be changed before Build. Every link runs at Rate, and
// the built fabric's BaseRTT is 8 × LinkDelay — the two-switch path's
// four links each way — whatever the shape, so every stack sees one
// RTT on every small topology.
type Small struct {
	Rate      sim.Rate // every link
	LinkDelay sim.Time // one-way, per link

	// Jitter is the per-delivery random delay bound (see
	// netsim.Network.SetJitter); JitterSeed seeds its stream.
	Jitter     sim.Time
	JitterSeed int64

	shape shape
	pairs int // the figure's flows, one per sender/receiver pair
}

// small is shape with pairs flows at §2's settings: 10 Gbps links,
// 100 µs RTT across the two-switch path (4 links each way → 12.5 µs per
// link).
func small(s shape, pairs int) Small {
	c := Small{Rate: 10 * sim.Gbps, LinkDelay: 12500 * sim.Nanosecond, shape: s, pairs: pairs}
	// Half a packet serialization time of delivery jitter: enough to
	// re-randomize arrival phases within a few packets, so synchronized
	// senders do not phase-lock against deterministic drop-tail queues
	// (the receivers are bitmap-based, so sub-packet reordering is
	// harmless).
	c.Jitter = c.Rate.TxTime(netsim.MSS) / 2
	return c
}

// testbed is s at §7's 1 GbE testbed settings.
func testbed(s shape) Small {
	c := small(s, 4)
	c.Rate = sim.Gbps
	c.Jitter = c.Rate.TxTime(netsim.MSS) / 2
	return c
}

// Chain is the Fig. 1 multi-bottleneck topology at §2's settings:
//
//	S0,S1 @SW0 --btl0--> SW1 (R1 here; S2,S3 here) --btl1--> SW2 (R0,R2,R3)
//
// Flow f0: S0→R0 crosses both bottlenecks; f1: S1→R1 crosses btl0;
// f2: S2→R2 and f3: S3→R3 cross btl1. Bottlenecks[0] is SW0→SW1,
// Bottlenecks[1] is SW1→SW2.
func Chain() Small { return small(chainShape, 4) }

// Fan is the Fig. 2 dynamic-traffic topology at §2's settings with the
// given number of sender/receiver pairs: the senders on one switch, the
// receivers on another, and a single shared bottleneck between,
// Bottlenecks[0].
func Fan(pairs int) Small { return small(fanShape, pairs) }

// TestbedDynamic is the Fig. 8 testbed at 1 GbE: two independent
// dumbbells. f1,f2 (S0,S1→R0,R1) share Bottlenecks[0]; f3,f4 (S2,S3→
// R2,R3) share Bottlenecks[1].
func TestbedDynamic() Small { return testbed(testbedDynamicShape) }

// TestbedMultiBottleneck is the Fig. 10 leaf-spine testbed at 1 GbE:
//
//	SW0 --btlA--> SW1 --btlB--> SW2
//
// f1: S0@SW0 → R0@SW2 (crosses btlA, btlB, and R0's downlink)
// f2: S1@SW0 → R1@SW1 (shares btlA with f1)
// f3: S2@SW1 → R0@SW2 (same destination host as f1 — SRPT competition)
// f4: S3@SW1 → R3@SW2 (shares btlB with f3)
//
// Bottlenecks[0]=btlA, Bottlenecks[1]=btlB, Bottlenecks[2]=R0 downlink.
func TestbedMultiBottleneck() Small { return testbed(testbedMultiBottleneckShape) }

// The four-flow shapes' host names.
var (
	senderNames   = [4]string{"S0", "S1", "S2", "S3"}
	receiverNames = [4]string{"R0", "R1", "R2", "R3"}
)

// Hosts implements Builder.
func (c Small) Hosts() int {
	if c.shape == testbedMultiBottleneckShape {
		return 7 // R0 receives two flows
	}
	return 2 * c.pairs
}

// AccessRate implements Builder: every link's rate.
func (c Small) AccessRate() sim.Rate { return c.Rate }

// Canonical implements Builder.
func (c Small) Canonical() string {
	return canon(shapeNames[c.shape], "pairs", c.pairs,
		"rate", int64(c.Rate), "linkdelay", int64(c.LinkDelay),
		"jitter", int64(c.Jitter), "jitterseed", c.JitterSeed)
}

// Sender returns the host index of the figure's i-th sender.
func (c Small) Sender(i int) int {
	if c.shape == fanShape {
		return 2 * i // the fan cables each sender, then its receiver
	}
	return i
}

// Receiver returns the host index of the receiver of the figure's
// flow i.
func (c Small) Receiver(i int) int {
	switch c.shape {
	case fanShape:
		return 2*i + 1
	case testbedMultiBottleneckShape:
		return [...]int{4, 5, 4, 6}[i]
	}
	return c.pairs + i
}

// smallSwitches is a small topology's switch layout: the switches'
// names and port counts, in creation order, and its switch-to-switch
// links. Build cables exactly this.
type smallSwitches struct {
	names        [4]string
	ports        [4]int
	count, links int
}

// switches returns the shape's switch layout.
func (c Small) switches() smallSwitches {
	switch c.shape {
	case chainShape:
		// sw0: S0 S1 sw1; sw1: sw0 S2 S3 R1 sw2; sw2: R0 R2 R3 sw1.
		return smallSwitches{names: [4]string{"sw0", "sw1", "sw2"}, ports: [4]int{3, 5, 4}, count: 3, links: 2}
	case fanShape:
		return smallSwitches{names: [4]string{"swA", "swB"}, ports: [4]int{c.pairs + 1, c.pairs + 1}, count: 2, links: 1}
	case testbedDynamicShape:
		// swA1: S0 S1 swB1; swB1: R0 R1 swA1 swA2; swA2: S2 S3 swB2
		// swB1; swB2: R2 R3 swA2.
		return smallSwitches{names: [4]string{"swA1", "swB1", "swA2", "swB2"}, ports: [4]int{3, 4, 4, 3}, count: 4, links: 3}
	default: // testbedMultiBottleneckShape
		// sw0: S0 S1 sw1; sw1: S2 S3 R1 sw0 sw2; sw2: R0 R3 sw1.
		return smallSwitches{names: [4]string{"sw0", "sw1", "sw2"}, ports: [4]int{3, 5, 3}, count: 3, links: 2}
	}
}

// Build implements Builder: the topology on a fresh network with ov
// laid over it and shortest-path routes installed. Senders are named
// "S<i>" and receivers "R<i>". It panics on a Small not made by one of
// this file's functions, or a fan without pairs.
func (c Small) Build(ov Overlay) *Fabric {
	if c.shape == 0 || c.pairs <= 0 {
		panic(fmt.Sprintf("topo: small topology %q with %d pairs", shapeNames[c.shape], c.pairs))
	}
	sw := c.switches()
	w := newWiring(ov, c.LinkDelay, c.Jitter, c.JitterSeed, c.Hosts(), sw.count, sw.links)
	f := w.f
	f.AccessRate, f.BaseRTT = c.Rate, 8*c.LinkDelay
	for i, name := range sw.names[:sw.count] {
		f.Switches = append(f.Switches, w.newSwitch(name, sw.ports[i]))
	}
	s := f.Switches
	// hosts adds host names[i] under at[i].
	hosts := func(names *[4]string, at ...*netsim.Switch) {
		for i, sw := range at {
			w.host(sw, names[i], c.Rate)
		}
	}
	link := func(a, b *netsim.Switch) *netsim.Port { return w.link(a, b, c.Rate) }

	switch c.shape {
	case chainShape:
		hosts(&senderNames, s[0], s[0], s[1], s[1])
		hosts(&receiverNames, s[2], s[1], s[2], s[2])
		f.Bottlenecks = []*netsim.Port{link(s[0], s[1]), link(s[1], s[2])}
	case fanShape:
		for i := 0; i < c.pairs; i++ {
			w.host(s[0], w.name("S", i), c.Rate)
			w.host(s[1], w.name("R", i), c.Rate)
		}
		f.Bottlenecks = []*netsim.Port{link(s[0], s[1])}
	case testbedDynamicShape:
		hosts(&senderNames, s[0], s[0], s[2], s[2])
		hosts(&receiverNames, s[1], s[1], s[3], s[3])
		f.Bottlenecks = []*netsim.Port{link(s[0], s[1]), link(s[2], s[3])}
		// A cross-link keeps the network connected (the testbed is one
		// fabric); no experiment flow crosses it.
		link(s[1], s[2])
	case testbedMultiBottleneckShape:
		hosts(&senderNames, s[0], s[0], s[1], s[1])
		r0Down := w.host(s[2], "R0", c.Rate)
		w.host(s[1], "R1", c.Rate)
		w.host(s[2], "R3", c.Rate)
		f.Bottlenecks = []*netsim.Port{link(s[0], s[1]), link(s[1], s[2]), r0Down}
	}
	roles := make([]*netsim.Host, 2*c.pairs)
	f.Senders, f.Receivers = roles[:c.pairs:c.pairs], roles[c.pairs:]
	for i := range f.Senders {
		f.Senders[i], f.Receivers[i] = f.Hosts[c.Sender(i)], f.Hosts[c.Receiver(i)]
	}
	InstallShortestPathRoutes(w.net)
	return f
}
