package experiment

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// scenarioRTT is the base RTT every small-topology run hands its stack:
// topo.DefaultScenario's 12.5 µs links across the two-switch path.
const scenarioRTT = 100 * sim.Microsecond

// ScenarioHarness is the one way a small topology (topo.Scenario) is
// run: it puts a stack's queues and marker on the topology, builds it,
// partitions it over engine shards and drives the flows through the
// large-scale runner's split registration — each switch and its hosts
// form one group, groups round-robin over shards, a flow's sender side
// registers on its source's shard and its receiver side on its
// destination's — so every figure is byte-identical at every shard
// count (see docs/PARALLELISM.md and the golden tests next to this
// file).
type ScenarioHarness struct {
	S *topo.Scenario

	insts []Instance
	flows []*transport.Flow

	// Per-shard goodput trackers, nil unless the figure asked for them:
	// a flow's tracker lives on its home (receiver) shard only, so no
	// two engine goroutines share one.
	trackers []transport.FlowTable[stats.FlowThroughput]

	// tracked counts TrackUtil calls: each ticker takes its own sub-key.
	tracked uint64
}

// fanN is topo.NewFanN with the pair count bound: the constructor shape
// NewScenarioHarness takes.
func fanN(pairs int) func(topo.ScenarioConfig, topo.Overlay) *topo.Scenario {
	return func(c topo.ScenarioConfig, ov topo.Overlay) *topo.Scenario { return topo.NewFanN(c, ov, pairs) }
}

// NewScenarioHarness builds the topology as build(sc, st.Overlay) — st's
// switch queues, host queues and marker laid over sc — partitions it
// across nshards engine shards (nshards <= 1 leaves it unpartitioned)
// and creates one stack instance per shard from base, at scenarioRTT.
// A window > 0 attaches a normalized-goodput tracker to every flow,
// flow ID i+1's series named names[i]; the trackers take base.OnData.
func NewScenarioHarness(st Stack, sc topo.ScenarioConfig, build func(topo.ScenarioConfig, topo.Overlay) *topo.Scenario, base transport.Config, nshards int, window sim.Time, names []string) *ScenarioHarness {
	s := build(sc, st.Overlay)
	h := &ScenarioHarness{S: s, flows: make([]*transport.Flow, 0, len(s.Senders))}
	if nshards > 1 {
		// Switches round-robin over the shards; a host rides with the
		// switch its NIC is cabled to.
		group := make([]int, len(s.Net.Hosts())+len(s.Net.Switches())) // by node ID
		for i, sw := range s.Switches {
			group[sw.ID()] = i % nshards
		}
		s.Net.Partition(nshards, func(n netsim.Node) int {
			if hh, ok := n.(*netsim.Host); ok {
				n = hh.NIC().Link().To
			}
			return group[n.ID()]
		})
	}
	shards := s.Net.Shards()
	if window > 0 {
		h.trackers = make([]transport.FlowTable[stats.FlowThroughput], len(shards))
	}
	h.insts = make([]Instance, len(shards))
	base.RTT = scenarioRTT
	for i, sh := range shards {
		cfg := base
		cfg.Shard = sh
		if window > 0 {
			trackers, eng, ref := &h.trackers[i], sh.Eng(), sc.Rate
			cfg.OnData = func(f *transport.Flow, pkt *netsim.Packet) {
				tr := trackers.Get(f.ID)
				if tr == nil {
					tr = stats.NewFlowThroughput(names[f.ID-1], window, ref)
					trackers.Put(f.ID, tr)
				}
				tr.OnBytes(eng.Now(), pkt.Size)
			}
		}
		h.insts[i] = st.New(s.Net, cfg)
	}
	return h
}

// AddFlow registers a flow the way the runner does (registerFlow,
// releaseFlow) and returns it.
func (h *ScenarioHarness) AddFlow(id netsim.FlowID, src, dst *netsim.Host, size int64, start sim.Time) *transport.Flow {
	f := registerFlow(h.insts, id, src, dst, size, false)
	releaseFlow(h.insts, f, start)
	h.flows = append(h.flows, f)
	return f
}

// Downlink returns the switch port that delivers to host: where an
// incast's queue builds.
func (h *ScenarioHarness) Downlink(host *netsim.Host) *netsim.Port {
	for _, pt := range host.NIC().Link().To.(*netsim.Switch).Ports() {
		if pt.Link().To.ID() == host.ID() {
			return pt
		}
	}
	panic("experiment: no downlink to " + host.Name())
}

// TrackUtil attaches a monitor to port and samples its utilization
// every interval up to horizon, ticking in the late band of the port
// owner's shard engine (the only goroutine allowed to read the monitor
// mid-run); each sample resets the monitor's window. It returns the
// series.
func (h *ScenarioHarness) TrackUtil(name string, port *netsim.Port, interval, horizon sim.Time) *stats.Series {
	mon := netsim.Attach(port)
	s := &stats.Series{Name: name}
	eng := port.Shard().Eng()
	eng.Every(interval, interval, horizon, subUtil+h.tracked, func() bool {
		now := eng.Now()
		s.Append(now, mon.Utilization(now))
		mon.ResetWindow(now)
		return true
	})
	h.tracked++
	return s
}

// Run executes the scenario to the horizon (the conservative
// time-window loop when partitioned, the plain event loop otherwise),
// then releases the network (netsim.Network.Release): a harness runs
// once, and its ports' jitter streams go to the next run. Ports,
// monitors and flows stay readable.
func (h *ScenarioHarness) Run(horizon sim.Time) {
	h.S.Net.Run(horizon)
	h.S.Net.Release()
}

// Flows returns the harness's flows in AddFlow order.
func (h *ScenarioHarness) Flows() []*transport.Flow { return h.flows }

// Series collects the per-flow goodput series in AddFlow order at every
// shard count, merging the per-shard tracker tables (each flow has at
// most one tracker, on its home shard; flows that never delivered have
// none).
func (h *ScenarioHarness) Series() []*stats.Series {
	if h.trackers == nil {
		return nil
	}
	out := make([]*stats.Series, 0, len(h.flows))
	for _, f := range h.flows {
		if tr := h.trackers[f.Home].Get(f.ID); tr != nil {
			out = append(out, tr.Finish())
		}
	}
	return out
}
