package topo

import (
	"fmt"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// ScenarioConfig carries the knobs shared by the small motivation and
// testbed topologies.
type ScenarioConfig struct {
	Rate      sim.Rate // every link
	LinkDelay sim.Time // one-way, per link

	// Jitter is the per-delivery random delay bound (see
	// netsim.Network.SetJitter); JitterSeed seeds its stream.
	Jitter     sim.Time
	JitterSeed int64
}

// DefaultScenario matches §2's settings: 10 Gbps links, 100 µs RTT
// across the two-switch path (4 links each way → 12.5 µs per link),
// 128-packet buffers.
func DefaultScenario() ScenarioConfig {
	c := ScenarioConfig{
		Rate:      10 * sim.Gbps,
		LinkDelay: 12500 * sim.Nanosecond,
	}
	// Half a packet serialization time of delivery jitter: enough to
	// re-randomize arrival phases within a few packets, so synchronized
	// senders do not phase-lock against deterministic drop-tail queues
	// (the receivers are bitmap-based, so sub-packet reordering is
	// harmless).
	c.Jitter = c.Rate.TxTime(netsim.MSS) / 2
	return c
}

// TestbedScenario matches §7's 1 GbE testbed.
func TestbedScenario() ScenarioConfig {
	c := DefaultScenario()
	c.Rate = sim.Gbps
	c.Jitter = c.Rate.TxTime(netsim.MSS) / 2
	return c
}

// smallWiring is the wiring of a small topology: every link at one rate.
type smallWiring struct {
	wiring
	rate sim.Rate
}

// wire starts a small topology on a fresh network with ov laid over it.
func (c ScenarioConfig) wire(ov Overlay) smallWiring {
	return smallWiring{newWiring(ov, c.LinkDelay, c.Jitter, c.JitterSeed), c.Rate}
}

// add attaches a host named name to sw and returns it.
func (w *smallWiring) add(sw *netsim.Switch, name string) *netsim.Host {
	h, _ := w.host(sw, name, w.rate)
	return h
}

// connect joins two switches and returns the a→b port.
func (w *smallWiring) connect(a, b *netsim.Switch) *netsim.Port { return w.link(a, b, w.rate) }

// Scenario is a built small topology with named hosts.
type Scenario struct {
	Net       *netsim.Network
	Senders   []*netsim.Host
	Receivers []*netsim.Host
	Switches  []*netsim.Switch

	// Bottlenecks are the egress ports the experiment monitors, in the
	// order the figure discusses them.
	Bottlenecks []*netsim.Port
}

// NewChain builds the Fig. 1 multi-bottleneck scenario:
//
//	S0,S1 @SW0 --btl0--> SW1 (R1 here; S2,S3 here) --btl1--> SW2 (R0,R2,R3)
//
// Flow f0: S0→R0 crosses both bottlenecks; f1: S1→R1 crosses btl0;
// f2: S2→R2 and f3: S3→R3 cross btl1. Bottlenecks[0] is SW0→SW1,
// Bottlenecks[1] is SW1→SW2.
func NewChain(cfg ScenarioConfig, ov Overlay) *Scenario {
	w := cfg.wire(ov)
	n := w.net
	sw0 := n.NewSwitch("sw0")
	sw1 := n.NewSwitch("sw1")
	sw2 := n.NewSwitch("sw2")
	s := &Scenario{Net: n, Switches: []*netsim.Switch{sw0, sw1, sw2}}

	s.Senders = []*netsim.Host{
		w.add(sw0, "S0"),
		w.add(sw0, "S1"),
		w.add(sw1, "S2"),
		w.add(sw1, "S3"),
	}
	s.Receivers = []*netsim.Host{
		w.add(sw2, "R0"),
		w.add(sw1, "R1"),
		w.add(sw2, "R2"),
		w.add(sw2, "R3"),
	}
	s.Bottlenecks = []*netsim.Port{w.connect(sw0, sw1), w.connect(sw1, sw2)}
	InstallShortestPathRoutes(n)
	return s
}

// NewFan builds the Fig. 2 dynamic-traffic scenario: four senders on one
// switch, four receivers on another, a single shared bottleneck between.
// Bottlenecks[0] is the shared link.
func NewFan(cfg ScenarioConfig, ov Overlay) *Scenario {
	return NewFanN(cfg, ov, 4)
}

// NewFanN is NewFan with a configurable number of sender/receiver pairs.
func NewFanN(cfg ScenarioConfig, ov Overlay, pairs int) *Scenario {
	w := cfg.wire(ov)
	n := w.net
	swA := n.NewSwitch("swA")
	swB := n.NewSwitch("swB")
	s := &Scenario{Net: n, Switches: []*netsim.Switch{swA, swB}}
	for i := 0; i < pairs; i++ {
		s.Senders = append(s.Senders, w.add(swA, fmt.Sprintf("S%d", i)))
		s.Receivers = append(s.Receivers, w.add(swB, fmt.Sprintf("R%d", i)))
	}
	s.Bottlenecks = []*netsim.Port{w.connect(swA, swB)}
	InstallShortestPathRoutes(n)
	return s
}

// NewTestbedDynamic builds the Fig. 8 testbed: two independent
// dumbbells. f1,f2 (S0,S1→R0,R1) share Bottlenecks[0]; f3,f4 (S2,S3→
// R2,R3) share Bottlenecks[1].
func NewTestbedDynamic(cfg ScenarioConfig, ov Overlay) *Scenario {
	w := cfg.wire(ov)
	n := w.net
	swA1 := n.NewSwitch("swA1")
	swB1 := n.NewSwitch("swB1")
	swA2 := n.NewSwitch("swA2")
	swB2 := n.NewSwitch("swB2")
	s := &Scenario{Net: n, Switches: []*netsim.Switch{swA1, swB1, swA2, swB2}}
	s.Senders = []*netsim.Host{
		w.add(swA1, "S0"),
		w.add(swA1, "S1"),
		w.add(swA2, "S2"),
		w.add(swA2, "S3"),
	}
	s.Receivers = []*netsim.Host{
		w.add(swB1, "R0"),
		w.add(swB1, "R1"),
		w.add(swB2, "R2"),
		w.add(swB2, "R3"),
	}
	s.Bottlenecks = []*netsim.Port{
		w.connect(swA1, swB1),
		w.connect(swA2, swB2),
	}
	// A cross-link keeps the network connected (the testbed is one
	// fabric); no experiment flow crosses it.
	w.connect(swB1, swA2)
	InstallShortestPathRoutes(n)
	return s
}

// NewTestbedMultiBottleneck builds the Fig. 10 leaf-spine testbed:
//
//	SW0 --btlA--> SW1 --btlB--> SW2
//
// f1: S0@SW0 → R0@SW2 (crosses btlA, btlB, and R0's downlink)
// f2: S1@SW0 → R1@SW1 (shares btlA with f1)
// f3: S2@SW1 → R0@SW2 (same destination host as f1 — SRPT competition)
// f4: S3@SW1 → R3@SW2 (shares btlB with f3)
//
// Bottlenecks[0]=btlA, Bottlenecks[1]=btlB, Bottlenecks[2]=R0 downlink.
func NewTestbedMultiBottleneck(cfg ScenarioConfig, ov Overlay) *Scenario {
	w := cfg.wire(ov)
	n := w.net
	sw0 := n.NewSwitch("sw0")
	sw1 := n.NewSwitch("sw1")
	sw2 := n.NewSwitch("sw2")
	s := &Scenario{Net: n, Switches: []*netsim.Switch{sw0, sw1, sw2}}
	s.Senders = []*netsim.Host{
		w.add(sw0, "S0"),
		w.add(sw0, "S1"),
		w.add(sw1, "S2"),
		w.add(sw1, "S3"),
	}
	r0, r0Down := w.host(sw2, "R0", w.rate)
	r1 := w.add(sw1, "R1")
	r3 := w.add(sw2, "R3")
	s.Receivers = []*netsim.Host{r0, r1, r0, r3} // per-flow receivers: f3 targets R0
	s.Bottlenecks = []*netsim.Port{w.connect(sw0, sw1), w.connect(sw1, sw2), r0Down}
	InstallShortestPathRoutes(n)
	return s
}
