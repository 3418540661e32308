package experiment

import (
	"fmt"
	"strconv"

	"amrt/internal/metrics"
	"amrt/internal/workload"
)

// FCTCell is one (workload, load, protocol) point of Fig. 12.
type FCTCell struct {
	Workload string
	Load     float64
	Proto    string
	Res      RunResult
}

// Fig12Cells reproduces Fig. 12: average and 99th-percentile FCT under
// the five realistic workloads with increasing load, for all four
// protocols. All protocols see byte-identical flow sequences. Cells
// come in workload, load, protocol order.
func Fig12Cells(cfg SimConfig) []FCTCell {
	var out []FCTCell
	for _, c := range cfg.poissonCells("fig12", len(cfg.Loads), func(w *workload.Empirical, i int) (float64, int, string) {
		return cfg.Loads[i], cfg.flowCount(w.Mean()), fmt.Sprintf("%.2f", cfg.Loads[i])
	}) {
		out = append(out, FCTCell{Workload: c.workload, Load: cfg.Loads[c.point], Proto: c.res.Stack, Res: c.res})
	}
	return out
}

// poissonCell is one run of poissonCells' grid.
type poissonCell struct {
	workload string
	point    int
	res      RunResult
}

// poissonCells runs Fig 12's or 13's grid: each of c's workloads, each
// of n points, every protocol, with c's fault plan and -metrics
// registry attached. point(w, i) is the i-th point's load, flow count
// and label, which names it in the flows' seed and the dump file.
func (c SimConfig) poissonCells(fig string, n int, point func(w *workload.Empirical, i int) (load float64, count int, label string)) []poissonCell {
	var cells []cell
	var out []poissonCell
	for _, wname := range c.Workloads {
		w := mustWorkload(wname)
		for i := 0; i < n; i++ {
			load, count, label := point(w, i)
			flows := c.poissonFlows(w, load, count, fmt.Sprintf("%s-%s-%s", fig, w.Name(), label))
			for _, p := range c.Protocols {
				run := LeafSpineRun{Topo: c.Topo, Stack: MustStack(p, StackOptions{}), Horizon: c.Horizon,
					Faults: c.newFaultPlan(), MetricsInterval: c.MetricsInterval}
				if c.MetricsDir != "" {
					run.Metrics = metrics.NewRegistry()
				}
				name := fmt.Sprintf("%s_%s_%s_%s", fig, w.Name(), label, run.Stack.Name)
				cells = append(cells, cell{run: run, flows: flows, name: name})
				out = append(out, poissonCell{workload: w.Name(), point: i})
			}
		}
	}
	for i, res := range runCells(c.MetricsDir, cells) {
		out[i].res = res
	}
	return out
}

// Fig12Tables renders one table per workload: rows are loads, columns
// are per-protocol AFCT and p99 in milliseconds. cells are
// Fig12Cells(cfg).
func Fig12Tables(cfg SimConfig, cells []FCTCell) []*Table {
	return poissonTables(cfg, "Fig 12 — FCT, %s (%s)", "load", decimalLabels(cfg.Loads), []string{" AFCT(ms)", " p99(ms)"}, cells,
		func(c FCTCell) []string {
			return []string{fmt.Sprintf("%.3f", c.Res.AFCT.Milliseconds()), fmt.Sprintf("%.3f", c.Res.P99.Milliseconds())}
		})
}

// poissonTables renders a poissonCells grid as one table per workload:
// a row per point, labelled rows, under corner, and per protocol one
// column per unit, filled from value.
func poissonTables[C any](cfg SimConfig, title, corner string, rows, units []string, cells []C, value func(C) []string) []*Table {
	var tables []*Table
	for wi, wname := range cfg.Workloads {
		block := cells[wi*len(rows)*len(cfg.Protocols):]
		tables = append(tables, gridTable(fmt.Sprintf(title, wname, workload.Abbrev(wname)), corner, rows, cfg.Protocols, units,
			func(r, c int) []string { return value(block[r*len(cfg.Protocols)+c]) }))
	}
	return tables
}

// UtilCell is one (workload, flow count, protocol) point of Fig. 13.
type UtilCell struct {
	Workload string
	Flows    int
	Proto    string
	Res      RunResult
}

// Fig13Load is the offered load at which the Fig. 13 flow-count sweep
// injects its flows.
const Fig13Load = 0.6

// Fig13Cells reproduces Fig. 13: bottleneck-link utilization with an
// increasing number of flows under the five workloads. Cells come in
// workload, flow count, protocol order.
func Fig13Cells(cfg SimConfig, flowCounts []int) []UtilCell {
	var out []UtilCell
	for _, c := range cfg.poissonCells("fig13", len(flowCounts), func(_ *workload.Empirical, i int) (float64, int, string) {
		return Fig13Load, flowCounts[i], strconv.Itoa(flowCounts[i])
	}) {
		out = append(out, UtilCell{Workload: c.workload, Flows: flowCounts[c.point], Proto: c.res.Stack, Res: c.res})
	}
	return out
}

// Fig13Tables renders one table per workload: rows are flow counts,
// columns per-protocol bottleneck utilization. cells are
// Fig13Cells(cfg, flowCounts).
func Fig13Tables(cfg SimConfig, flowCounts []int, cells []UtilCell) []*Table {
	rows := make([]string, len(flowCounts))
	for i, n := range flowCounts {
		rows[i] = strconv.Itoa(n)
	}
	return poissonTables(cfg, "Fig 13 — bottleneck utilization, %s (%s)", "flows", rows, []string{" util"}, cells,
		func(c UtilCell) []string { return []string{fmt.Sprintf("%.3f", c.Res.Utilization)} })
}
