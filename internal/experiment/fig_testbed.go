package experiment

import (
	"fmt"

	"amrt/internal/pool"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// TestbedResult carries one §7 testbed reproduction: per-flow
// normalized-throughput series and a summary table.
type TestbedResult struct {
	Stack   string
	Series  []*stats.Series
	Summary *Table
	Flows   []*transport.Flow
}

// testbedFlows names the §7 testbed figures' flows.
var testbedFlows = []string{"f1", "f2", "f3", "f4"}

// Fig9 reproduces the §7 dynamic-traffic testbed run on the Fig. 8
// topology at 1 GbE: f1/f2 share one bottleneck, f3/f4 another; f1 and
// f3 finish early and AMRT's marks let f2/f4 absorb the released
// bandwidth within a couple of milliseconds. Any stack can be passed
// for comparison; the paper shows AMRT.
func Fig9(st Stack) TestbedResult { return fig9(st, LeafSpineRun{}) }

// fig9 is Fig9 on r (see fig1).
func fig9(st Stack, r LeafSpineRun) TestbedResult {
	b := topo.TestbedDynamic()
	r.Topo, r.Stack, r.Horizon = b, st, 40*sim.Millisecond
	// At a fair half share (500 Mbps) f1 (312.5 KB) finishes at ~5 ms
	// and f3 (812.5 KB) at ~13 ms, matching the paper's timeline.
	r.Flows = pairFlows(b, []int64{312_500, 2_000_000, 812_500, 2_000_000}, make([]sim.Time, 4))
	r.FlowNames, r.GoodputWindow = testbedFlows, 250*sim.Microsecond
	res := r.Run()

	sum := &Table{
		Title: fmt.Sprintf("Fig 9 — testbed dynamic traffic (%s, 1GbE)", st.Name),
		Cols:  []string{"flow", "size", "done", "FCT(ms)"},
	}
	for i, f := range res.Flows {
		fct := "-"
		if f.Done {
			fct = fmt.Sprintf("%.2f", f.FCT().Milliseconds())
		}
		sum.AddRow(testbedFlows[i], fmt.Sprintf("%d", f.Size), fmt.Sprintf("%v", f.Done), fct)
	}
	return TestbedResult{Stack: st.Name, Series: res.Goodput, Summary: sum, Flows: res.Flows}
}

// Fig11 reproduces the §7 multi-bottleneck testbed comparison on the
// Fig. 10 topology at 1 GbE for one protocol stack. The paper's
// timeline (seconds) is scaled to milliseconds: f1 and f2 start at 0,
// f3 (same destination as f1) starts at 10 ms, f4 at 20 ms.
func Fig11(st Stack) TestbedResult { return fig11(st, LeafSpineRun{}) }

// fig11 is Fig11 on r (see fig1).
func fig11(st Stack, r LeafSpineRun) TestbedResult {
	b := topo.TestbedMultiBottleneck()
	r.Topo, r.Stack, r.Horizon = b, st, 100*sim.Millisecond
	r.Flows = pairFlows(b, []int64{3_000_000, 4_000_000, 1_500_000, 1_500_000},
		[]sim.Time{0, 0, 10 * sim.Millisecond, 20 * sim.Millisecond})
	r.FlowNames, r.GoodputWindow = testbedFlows, 250*sim.Microsecond
	res := r.Run()

	sum := &Table{
		Title: fmt.Sprintf("Fig 11 — testbed multi-bottleneck (%s, 1GbE)", st.Name),
		Cols:  []string{"flow", "start(ms)", "size", "done", "FCT(ms)"},
	}
	for i, f := range res.Flows {
		fct := "-"
		if f.Done {
			fct = fmt.Sprintf("%.2f", f.FCT().Milliseconds())
		}
		sum.AddRow(testbedFlows[i], fmt.Sprintf("%.0f", f.Start.Milliseconds()),
			fmt.Sprintf("%d", f.Size), fmt.Sprintf("%v", f.Done), fct)
	}
	return TestbedResult{Stack: st.Name, Series: res.Goodput, Summary: sum, Flows: res.Flows}
}

// Fig11All runs Fig11 for every protocol and emits a combined FCT
// comparison table (the paper's headline: AMRT reduces f2's FCT by ~36%,
// ~36%, ~12.7% vs pHost, Homa, NDP).
func Fig11All() ([]TestbedResult, *Table) {
	stacks := AllStacks(StackOptions{})
	results := pool.Parallel(len(stacks), func(i int) TestbedResult { return Fig11(stacks[i]) })
	cmp := &Table{
		Title: "Fig 11 — FCT comparison across protocols (ms)",
		Cols:  append([]string{"flow"}, ProtocolNames()...),
	}
	for fi, name := range testbedFlows {
		row := []string{name}
		for _, r := range results {
			f := r.Flows[fi]
			if f.Done {
				row = append(row, fmt.Sprintf("%.2f", f.FCT().Milliseconds()))
			} else {
				row = append(row, "-")
			}
		}
		cmp.AddRow(row...)
	}
	return results, cmp
}
