package experiment

import (
	"fmt"
	"sort"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/workload"
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
func Fig1(st Stack) MotivationResult { return fig1(st, LeafSpineRun{}) }

// fig1 is Fig1 on r, which may carry a shard count, a fault plan and
// the auditor.
func fig1(st Stack, r LeafSpineRun) MotivationResult {
	b := topo.Chain()
	r.Topo, r.Stack, r.Horizon = b, st, 8*sim.Millisecond
	// Long-running flows; f0 crosses both bottlenecks. "Simultaneous"
	// starts are staggered by a few µs (invisible at the figure's ms
	// scale) so the deterministic drop-tail does not phase-lock onto one
	// sender during the blind-start overload.
	r.Flows = pairFlows(b, []int64{25_000_000, 25_000_000, 25_000_000, 25_000_000},
		[]sim.Time{0, 2500 * sim.Nanosecond, sim.Millisecond, 3500 * sim.Microsecond})
	r.FlowNames, r.GoodputWindow = motivationFlows, 100*sim.Microsecond
	r.Samplers = []UtilSampler{{Name: "btl0-link-util", Interval: 100 * sim.Microsecond}}
	res := r.Run()

	series := res.Goodput
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
	return MotivationResult{Stack: st.Name, Util: util, LinkUtil: res.Util[0], FlowSeries: series, Phases: phases}
}

// motivationFlows names the §2 motivation figures' flows.
var motivationFlows = []string{"f0", "f1", "f2", "f3"}

// pairFlows returns a small topology's figure flows: flow i+1 runs from
// b's i-th sender to its i-th receiver, sizes[i] bytes from starts[i].
func pairFlows(b topo.Small, sizes []int64, starts []sim.Time) []workload.FlowSpec {
	flows := make([]workload.FlowSpec, len(sizes))
	for i, size := range sizes {
		flows[i] = workload.FlowSpec{ID: netsim.FlowID(i + 1), Src: b.Sender(i), Dst: b.Receiver(i), Size: size, Start: starts[i]}
	}
	return flows
}

// incast returns n synchronized flows of size bytes from b's first n
// senders to its first receiver.
func incast(b topo.Small, n int, size int64) []workload.FlowSpec {
	senders := make([]int, n)
	for i := range senders {
		senders[i] = b.Sender(i)
	}
	return workload.Incast(senders, b.Receiver(0), size, 0)
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
func Fig2(st Stack) MotivationResult { return fig2(st, LeafSpineRun{}) }

// fig2 is Fig2 on r (see fig1).
func fig2(st Stack, r LeafSpineRun) MotivationResult {
	b := topo.Fan(4)
	const horizon = 16 * sim.Millisecond
	r.Topo, r.Stack, r.Horizon = b, st, horizon
	// Sized so completions land near 2/4/6/8 ms at a fair quarter share
	// (2.5 Gbps each): 625 KB, 1.25 MB, 1.875 MB, 2.5 MB. The starts are
	// a µs-scale stagger, invisible at the figure's ms scale; see fig1
	// for why it exists at all. 5 µs (vs fig1's 2.5 µs) keeps every
	// pHost flow completing within the horizon under the per-port jitter
	// streams, so the figure shows "finishes later", not "never
	// finishes".
	r.Flows = pairFlows(b, []int64{625_000, 1_250_000, 1_875_000, 2_500_000},
		[]sim.Time{0, 5 * sim.Microsecond, 10 * sim.Microsecond, 15 * sim.Microsecond})
	r.FlowNames, r.GoodputWindow = motivationFlows, 100*sim.Microsecond
	r.Samplers = []UtilSampler{{Name: "btl-link-util", Interval: 100 * sim.Microsecond}}
	res := r.Run()

	series := res.Goodput
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
	for _, f := range res.Flows {
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
	return MotivationResult{Stack: st.Name, Util: util, LinkUtil: res.Util[0], FlowSeries: series, Phases: phases}
}
