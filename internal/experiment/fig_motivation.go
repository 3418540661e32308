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

// Fig1 reproduces the §2.1 multi-bottleneck motivation: four flows on
// the two-bottleneck chain; f2 starts at 1 ms, f3 at 3.5 ms, and the
// first bottleneck's utilization drops as f0 is squeezed at the second
// bottleneck. The paper runs pHost here; any stack may be passed to
// compare.
func Fig1(st Stack) MotivationResult { return fig1(st, 1) }

// fig1 is Fig1 at any engine-shard count.
func fig1(st Stack, nshards int) MotivationResult {
	names := []string{"f0", "f1", "f2", "f3"}
	h := NewScenarioHarness(st, topo.DefaultScenario(), topo.NewChain, transport.Config{}, nshards, 100*sim.Microsecond, names)
	s := h.S

	// Long-running flows; f0 crosses both bottlenecks. "Simultaneous"
	// starts are staggered by a few µs (invisible at the figure's ms
	// scale) so the deterministic drop-tail does not phase-lock onto one
	// sender during the blind-start overload.
	h.AddFlow(1, s.Senders[0], s.Receivers[0], 25_000_000, 0)
	h.AddFlow(2, s.Senders[1], s.Receivers[1], 25_000_000, 2500*sim.Nanosecond)
	h.AddFlow(3, s.Senders[2], s.Receivers[2], 25_000_000, sim.Millisecond)
	h.AddFlow(4, s.Senders[3], s.Receivers[3], 25_000_000, 3500*sim.Microsecond)

	const horizon = 8 * sim.Millisecond
	linkUtil := h.TrackUtil("btl0-link-util", s.Bottlenecks[0], 100*sim.Microsecond, horizon)
	h.Run(horizon)

	series := h.Series()
	// Goodput crossing the first bottleneck: f0 + f1.
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
func Fig2(st Stack) MotivationResult { return fig2(st, 1) }

// fig2 is Fig2 at any engine-shard count.
func fig2(st Stack, nshards int) MotivationResult {
	names := []string{"f0", "f1", "f2", "f3"}
	h := NewScenarioHarness(st, topo.DefaultScenario(), topo.NewFan, transport.Config{}, nshards, 100*sim.Microsecond, names)
	s := h.S

	// Sized so completions land near 2/4/6/8 ms at a fair quarter share
	// (2.5 Gbps each): 625 KB, 1.25 MB, 1.875 MB, 2.5 MB.
	sizes := []int64{625_000, 1_250_000, 1_875_000, 2_500_000}
	for i, size := range sizes {
		// µs-scale stagger, invisible at the figure's ms scale; see Fig1
		// for why it exists at all. 5 µs (vs Fig1's 2.5 µs) keeps every
		// pHost flow completing within the horizon under the per-port
		// jitter streams, so the figure shows "finishes later", not
		// "never finishes".
		start := sim.Time(i) * 5 * sim.Microsecond
		h.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[i], size, start)
	}

	const horizon = 16 * sim.Millisecond
	linkUtil := h.TrackUtil("btl-link-util", s.Bottlenecks[0], 100*sim.Microsecond, horizon)
	h.Run(horizon)

	series := h.Series()
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
	for _, f := range h.Flows() {
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
