package experiment

import (
	"fmt"
	"sort"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// MotivationResult carries a §2 motivation run: the bottleneck
// utilization time series plus phase summaries.
type MotivationResult struct {
	Stack string
	// Util is the goodput-based bottleneck utilization (sum of the
	// normalized goodput of the flows crossing it) — the paper's
	// metric. Retransmission churn that dies downstream does not count.
	Util *stats.Series
	// LinkUtil is the raw link-byte utilization of the same bottleneck.
	LinkUtil *stats.Series
	// FlowSeries holds per-flow normalized goodput at the receivers.
	FlowSeries []*stats.Series
	// Phases summarizes mean utilization over the figure's phases.
	Phases *Table
}

// trackFlows attaches normalized-goodput trackers to the given flows.
// It must be called before the run; the returned finish() collects the
// series afterwards.
func trackFlows(net *netsim.Network, names []string, window sim.Time, ref sim.Rate) (onData func(*transport.Flow, *netsim.Packet), finish func() []*stats.Series) {
	var trackers transport.FlowTable[stats.FlowThroughput]
	var order []*stats.FlowThroughput // by first delivery
	onData = func(f *transport.Flow, pkt *netsim.Packet) {
		tr := trackers.Get(f.ID)
		if tr == nil {
			tr = stats.NewFlowThroughput(flowName(names, f.ID), window, ref)
			trackers.Put(f.ID, tr)
			order = append(order, tr)
		}
		tr.OnBytes(net.Engine.Now(), pkt.Size)
	}
	finish = func() []*stats.Series {
		out := make([]*stats.Series, 0, len(order))
		for _, tr := range order {
			out = append(out, tr.Finish())
		}
		return out
	}
	return onData, finish
}

// flowName is the series name of flow id: names[id-1] when the figure
// gave one, else "f<id>".
func flowName(names []string, id netsim.FlowID) string {
	if id >= 1 && int(id-1) < len(names) {
		return names[id-1]
	}
	return fmt.Sprintf("f%d", id)
}

// Fig1 reproduces the §2.1 multi-bottleneck motivation: four flows on
// the two-bottleneck chain; f2 starts at 1 ms, f3 at 3.5 ms, and the
// first bottleneck's utilization drops as f0 is squeezed at the second
// bottleneck. The paper runs pHost here; any stack may be passed to
// compare.
func Fig1(st Stack) MotivationResult {
	sc := topo.DefaultScenario()
	sc.SwitchQueue = st.SwitchQueue
	sc.HostQueue = st.HostQueue
	sc.Marker = st.Marker
	s := topo.NewChain(sc)
	mon := netsim.Attach(s.Bottlenecks[0])

	base := transport.Config{RTT: 100 * sim.Microsecond}
	names := []string{"f0", "f1", "f2", "f3"}
	onData, finish := trackFlows(s.Net, names, 100*sim.Microsecond, sc.Rate)
	base.OnData = onData
	inst := st.New(s.Net, base)

	// Long-running flows; f0 crosses both bottlenecks. "Simultaneous"
	// starts are staggered by a few µs (invisible at the figure's ms
	// scale) so the deterministic drop-tail does not phase-lock onto one
	// sender during the blind-start overload.
	inst.AddFlow(1, s.Senders[0], s.Receivers[0], 25_000_000, 0)
	inst.AddFlow(2, s.Senders[1], s.Receivers[1], 25_000_000, 2500*sim.Nanosecond)
	inst.AddFlow(3, s.Senders[2], s.Receivers[2], 25_000_000, sim.Millisecond)
	inst.AddFlow(4, s.Senders[3], s.Receivers[3], 25_000_000, 3500*sim.Microsecond)

	sampler := stats.NewUtilizationSampler(100 * sim.Microsecond)
	linkUtil := sampler.Track("btl0-link-util", mon.Utilization, mon.ResetWindow)
	const horizon = 8 * sim.Millisecond
	sampler.Start(s.Net.Engine, horizon)
	s.Net.Run(horizon)

	series := finish()
	// Goodput crossing the first bottleneck: f0 + f1 (series are in
	// flow-creation order; both start at 0 so indexes 0 and 1 are them).
	util := stats.SumSeries("btl0-goodput-util", pick(series, "f0"), pick(series, "f1"))

	phases := &Table{
		Title: fmt.Sprintf("Fig 1 — 1st bottleneck goodput utilization (%s)", st.Name),
		Cols:  []string{"phase", "window", "mean util"},
	}
	addPhase := func(name string, from, to sim.Time) {
		phases.AddRow(name, fmt.Sprintf("%v-%v", from, to), fmt.Sprintf("%.3f", util.MeanBetween(from, to)))
	}
	addPhase("f0+f1 alone", 300*sim.Microsecond, sim.Millisecond)
	addPhase("f2 active", 1500*sim.Microsecond, 3500*sim.Microsecond)
	addPhase("f2+f3 active", 4*sim.Millisecond, 8*sim.Millisecond)
	return MotivationResult{Stack: st.Name, Util: util, LinkUtil: linkUtil, FlowSeries: series, Phases: phases}
}

// pick returns the series with the given name, or nil.
func pick(series []*stats.Series, name string) *stats.Series {
	for _, s := range series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Fig2 reproduces the §2.2 dynamic-traffic motivation: four flows with
// distinct receivers share one bottleneck; sizes stagger their
// completions, and a conservative protocol leaves the freed bandwidth
// unused.
func Fig2(st Stack) MotivationResult {
	sc := topo.DefaultScenario()
	sc.SwitchQueue = st.SwitchQueue
	sc.HostQueue = st.HostQueue
	sc.Marker = st.Marker
	s := topo.NewFan(sc)
	mon := netsim.Attach(s.Bottlenecks[0])

	base := transport.Config{RTT: 100 * sim.Microsecond}
	names := []string{"f0", "f1", "f2", "f3"}
	onData, finish := trackFlows(s.Net, names, 100*sim.Microsecond, sc.Rate)
	base.OnData = onData
	inst := st.New(s.Net, base)

	// Sized so completions land near 2/4/6/8 ms at a fair quarter share
	// (2.5 Gbps each): 625 KB, 1.25 MB, 1.875 MB, 2.5 MB.
	sizes := []int64{625_000, 1_250_000, 1_875_000, 2_500_000}
	var flows []*transport.Flow
	for i, size := range sizes {
		// µs-scale stagger, invisible at the figure's ms scale; see Fig1
		// for why it exists at all. 5 µs (vs Fig1's 2.5 µs) keeps every
		// pHost flow completing within the horizon under the per-port
		// jitter streams, so the figure shows "finishes later", not
		// "never finishes".
		start := sim.Time(i) * 5 * sim.Microsecond
		flows = append(flows, inst.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[i], size, start))
	}

	sampler := stats.NewUtilizationSampler(100 * sim.Microsecond)
	linkUtil := sampler.Track("btl-link-util", mon.Utilization, mon.ResetWindow)
	const horizon = 16 * sim.Millisecond
	sampler.Start(s.Net.Engine, horizon)
	s.Net.Run(horizon)

	series := finish()
	util := stats.SumSeries("btl-goodput-util", series...)

	phases := &Table{
		Title: fmt.Sprintf("Fig 2 — bottleneck goodput utilization as flows finish (%s)", st.Name),
		Cols:  []string{"phase", "window", "mean util", "flows done"},
	}
	// Phase boundaries follow the actual completion times (sorted — the
	// protocols do not finish flows in size order) so the table reads
	// "utilization while k flows remain".
	var ends []sim.Time
	last := sim.Time(0)
	for _, f := range flows {
		end := horizon
		if f.Done {
			end = f.End
		}
		ends = append(ends, end)
		if end > last {
			last = end
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	bounds := append([]sim.Time{300 * sim.Microsecond}, ends...)
	bounds = bounds[:len(bounds)-1]
	bounds = append(bounds, last)
	phaseNames := []string{"4 flows", "3 flows", "2 flows", "1 flow"}
	for i := 0; i+1 < len(bounds); i++ {
		if bounds[i+1] <= bounds[i] {
			continue
		}
		phases.AddRow(phaseNames[i],
			fmt.Sprintf("%v-%v", bounds[i], bounds[i+1]),
			fmt.Sprintf("%.3f", util.MeanBetween(bounds[i], bounds[i+1])),
			fmt.Sprintf("%d", i))
	}
	phases.AddRow("all done at", last.String(), "-", "4")
	return MotivationResult{Stack: st.Name, Util: util, LinkUtil: linkUtil, FlowSeries: series, Phases: phases}
}
