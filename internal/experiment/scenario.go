package experiment

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// ScenarioHarness drives one of the small figure topologies
// (topo.Scenario) at any engine-shard count. It mirrors the large-scale
// runner's partitioning and split flow registration — each switch and
// its hosts form one group, groups round-robin over shards, a flow's
// sender side registers on its source's shard and its receiver side on
// its destination's — so a sharded run produces byte-identical traces
// to the single-engine figure functions (see docs/PARALLELISM.md and
// the golden tests next to this file).
type ScenarioHarness struct {
	S *topo.Scenario

	shards []*netsim.Shard
	insts  []Instance
	flows  []*transport.Flow

	// Per-shard goodput trackers: a flow's tracker lives on its home
	// (receiver) shard only, so no two engine goroutines share one.
	trackers []transport.FlowTable[stats.FlowThroughput]
}

// NewScenarioHarness partitions the built scenario across nshards
// engine shards and creates one stack instance per shard. nshards <= 1
// leaves the network unpartitioned: the single-engine reference path,
// driven through the identical split registration so the comparison is
// apples-to-apples. window and ref parameterize the per-flow
// normalized-goodput trackers exactly as the figures' trackFlows does;
// names maps flow ID i+1 to names[i].
func NewScenarioHarness(s *topo.Scenario, st Stack, base transport.Config, nshards int, window sim.Time, names []string) *ScenarioHarness {
	if nshards <= 0 {
		nshards = 1
	}
	h := &ScenarioHarness{S: s}
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
	h.shards = s.Net.Shards()
	h.trackers = make([]transport.FlowTable[stats.FlowThroughput], len(h.shards))
	h.insts = make([]Instance, len(h.shards))
	for i := range h.shards {
		i := i
		cfg := base
		cfg.Shard = h.shards[i]
		cfg.OnData = func(f *transport.Flow, pkt *netsim.Packet) {
			tr := h.trackers[i].Get(f.ID)
			if tr == nil {
				tr = stats.NewFlowThroughput(flowName(names, f.ID), window, s.Cfg.Rate)
				h.trackers[i].Put(f.ID, tr)
			}
			tr.OnBytes(h.shards[i].Eng().Now(), pkt.Size)
		}
		h.insts[i] = st.New(s.Net, cfg)
	}
	return h
}

// AddFlow registers a flow through the runner's split path
// (registerFlow, releaseFlow) and returns it. At one shard this produces
// the exact event sequence of the protocols' AddFlow convenience path.
func (h *ScenarioHarness) AddFlow(id netsim.FlowID, src, dst *netsim.Host, size int64, start sim.Time) *transport.Flow {
	f := registerFlow(h.insts, id, src, dst, size, false)
	releaseFlow(h.insts, f, start)
	h.flows = append(h.flows, f)
	return f
}

// TrackUtil attaches a windowed utilization sampler to a monitored
// port, ticking on the port owner's shard engine (the only goroutine
// allowed to read the monitor mid-run), and returns its series.
func (h *ScenarioHarness) TrackUtil(name string, port *netsim.Port, mon *netsim.PortMonitor, interval, horizon sim.Time) *stats.Series {
	u := stats.NewUtilizationSampler(interval)
	s := u.Track(name, mon.Utilization, mon.ResetWindow)
	u.Start(port.Shard().Eng(), horizon)
	return s
}

// Run executes the scenario to the horizon (the conservative
// time-window loop when partitioned, the plain event loop otherwise).
func (h *ScenarioHarness) Run(horizon sim.Time) {
	h.S.Net.Run(horizon)
}

// Flows returns the harness's flows in AddFlow order.
func (h *ScenarioHarness) Flows() []*transport.Flow { return h.flows }

// Series collects the per-flow goodput series in AddFlow order,
// merging the per-shard tracker tables (each flow has at most one
// tracker, on its home shard; flows that never delivered have none).
func (h *ScenarioHarness) Series() []*stats.Series {
	var out []*stats.Series
	for _, f := range h.flows {
		for i := range h.trackers {
			if tr := h.trackers[i].Get(f.ID); tr != nil {
				out = append(out, tr.Finish())
			}
		}
	}
	return out
}
