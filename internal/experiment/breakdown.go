package experiment

import (
	"fmt"

	"amrt/internal/pool"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
)

// SizeBreakdownTable complements Fig. 12: the same Poisson experiment,
// but with FCT reported separately for short flows (<10 KB — the
// delay-sensitive RPCs the introduction leads with), medium flows, and
// the heavy tail (≥1 MB). Receiver-driven designs are judged on keeping
// the short-flow tail flat while the large flows fight for bandwidth.
func SizeBreakdownTable(cfg SimConfig, workloadName string, load float64) *Table {
	w := mustWorkload(workloadName)
	t := &Table{
		Title: fmt.Sprintf("FCT by flow size — %s @ load %.1f (ms, mean / p99)", workloadName, load),
		Cols:  []string{"proto", "<10KB mean", "<10KB p99", "10KB-1MB mean", "10KB-1MB p99", ">=1MB mean", ">=1MB p99"},
	}
	flows := cfg.poissonFlows(w, load, cfg.flowCount(w.Mean()), "breakdown-"+workloadName)
	cells := make([]cell, len(cfg.Protocols))
	for i, p := range cfg.Protocols {
		cells[i] = cell{run: LeafSpineRun{Topo: cfg.Topo, Stack: MustStack(p, StackOptions{}), Horizon: cfg.Horizon}, flows: flows}
	}
	for _, res := range runCells("", cells) {
		small, rest := res.Collector.BySize(10_000)
		medium, large := rest.BySize(1_000_000)
		row := []string{res.Stack}
		for _, c := range []*stats.FCTCollector{small, medium, large} {
			row = append(row,
				fmt.Sprintf("%.3f", c.Mean().Milliseconds()),
				fmt.Sprintf("%.3f", c.P99().Milliseconds()))
		}
		t.AddRow(row...)
	}
	return t
}

// IncastTable reproduces the §8 incast scenario: N synchronized senders
// deliver the same-size response to one aggregator, sweeping the fan-in.
// It reports the burst completion time (the time the slowest response
// arrives — the metric partition/aggregate applications feel) per
// protocol.
func IncastTable(fanIns []int, sizeBytes int64) *Table {
	t := &Table{
		Title: fmt.Sprintf("Incast — burst completion time (ms) for %dKB responses", sizeBytes/1000),
		Cols:  append([]string{"fan-in"}, ProtocolNames()...),
	}
	type key struct{ fi, pi int }
	var specs []key
	for fi := range fanIns {
		for pi := range ProtocolNames() {
			specs = append(specs, key{fi, pi})
		}
	}
	results := pool.Parallel(len(specs), func(i int) sim.Time {
		k := specs[i]
		st := MustStack(ProtocolNames()[k.pi], StackOptions{})
		n := fanIns[k.fi]
		b := topo.Fan(n)
		flows := LeafSpineRun{Topo: b, Stack: st, Flows: incast(b, n, sizeBytes), Horizon: 10 * sim.Second}.Run().Flows
		var last sim.Time
		for _, f := range flows {
			if !f.Done {
				return sim.Forever
			}
			if f.End > last {
				last = f.End
			}
		}
		return last
	})
	for fi, n := range fanIns {
		row := []string{fmt.Sprintf("%d", n)}
		for pi := range ProtocolNames() {
			v := results[fi*len(ProtocolNames())+pi]
			if v == sim.Forever {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.3f", v.Milliseconds()))
			}
		}
		t.AddRow(row...)
	}
	return t
}
