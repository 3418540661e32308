package experiment

import (
	"fmt"

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

// Fig9 reproduces the §7 dynamic-traffic testbed run on the Fig. 8
// topology at 1 GbE: f1/f2 share one bottleneck, f3/f4 another; f1 and
// f3 finish early and AMRT's marks let f2/f4 absorb the released
// bandwidth within a couple of milliseconds. Any stack can be passed
// for comparison; the paper shows AMRT.
func Fig9(st Stack) TestbedResult { return fig9(st, 1) }

// fig9 is Fig9 at any engine-shard count.
func fig9(st Stack, nshards int) TestbedResult {
	names := []string{"f1", "f2", "f3", "f4"}
	h := NewScenarioHarness(st, topo.TestbedScenario(), topo.NewTestbedDynamic, transport.Config{}, nshards, 250*sim.Microsecond, names)
	s := h.S

	// At a fair half share (500 Mbps) f1 (312.5 KB) finishes at ~5 ms
	// and f3 (812.5 KB) at ~13 ms, matching the paper's timeline.
	h.AddFlow(1, s.Senders[0], s.Receivers[0], 312_500, 0)
	h.AddFlow(2, s.Senders[1], s.Receivers[1], 2_000_000, 0)
	h.AddFlow(3, s.Senders[2], s.Receivers[2], 812_500, 0)
	h.AddFlow(4, s.Senders[3], s.Receivers[3], 2_000_000, 0)

	h.Run(40 * sim.Millisecond)

	sum := &Table{
		Title: fmt.Sprintf("Fig 9 — testbed dynamic traffic (%s, 1GbE)", st.Name),
		Cols:  []string{"flow", "size", "done", "FCT(ms)"},
	}
	for i, f := range h.Flows() {
		fct := "-"
		if f.Done {
			fct = fmt.Sprintf("%.2f", f.FCT().Milliseconds())
		}
		sum.AddRow(names[i], fmt.Sprintf("%d", f.Size), fmt.Sprintf("%v", f.Done), fct)
	}
	return TestbedResult{Stack: st.Name, Series: h.Series(), Summary: sum, Flows: h.Flows()}
}

// Fig11 reproduces the §7 multi-bottleneck testbed comparison on the
// Fig. 10 topology at 1 GbE for one protocol stack. The paper's
// timeline (seconds) is scaled to milliseconds: f1 and f2 start at 0,
// f3 (same destination as f1) starts at 10 ms, f4 at 20 ms.
func Fig11(st Stack) TestbedResult { return fig11(st, 1) }

// fig11 is Fig11 at any engine-shard count.
func fig11(st Stack, nshards int) TestbedResult {
	names := []string{"f1", "f2", "f3", "f4"}
	h := NewScenarioHarness(st, topo.TestbedScenario(), topo.NewTestbedMultiBottleneck, transport.Config{}, nshards, 250*sim.Microsecond, names)
	s := h.S

	h.AddFlow(1, s.Senders[0], s.Receivers[0], 3_000_000, 0)
	h.AddFlow(2, s.Senders[1], s.Receivers[1], 4_000_000, 0)
	h.AddFlow(3, s.Senders[2], s.Receivers[2], 1_500_000, 10*sim.Millisecond)
	h.AddFlow(4, s.Senders[3], s.Receivers[3], 1_500_000, 20*sim.Millisecond)

	h.Run(100 * sim.Millisecond)

	sum := &Table{
		Title: fmt.Sprintf("Fig 11 — testbed multi-bottleneck (%s, 1GbE)", st.Name),
		Cols:  []string{"flow", "start(ms)", "size", "done", "FCT(ms)"},
	}
	for i, f := range h.Flows() {
		fct := "-"
		if f.Done {
			fct = fmt.Sprintf("%.2f", f.FCT().Milliseconds())
		}
		sum.AddRow(names[i], fmt.Sprintf("%.0f", f.Start.Milliseconds()),
			fmt.Sprintf("%d", f.Size), fmt.Sprintf("%v", f.Done), fct)
	}
	return TestbedResult{Stack: st.Name, Series: h.Series(), Summary: sum, Flows: h.Flows()}
}

// Fig11All runs Fig11 for every protocol and emits a combined FCT
// comparison table (the paper's headline: AMRT reduces f2's FCT by ~36%,
// ~36%, ~12.7% vs pHost, Homa, NDP).
func Fig11All() ([]TestbedResult, *Table) {
	stacks := AllStacks(StackOptions{})
	results := Parallel(len(stacks), func(i int) TestbedResult { return Fig11(stacks[i]) })
	cmp := &Table{
		Title: "Fig 11 — FCT comparison across protocols (ms)",
		Cols:  append([]string{"flow"}, ProtocolNames()...),
	}
	for fi, name := range []string{"f1", "f2", "f3", "f4"} {
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
