package experiment

import (
	"fmt"

	"amrt/internal/sim"
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
// protocols. All protocols see byte-identical flow sequences.
func Fig12Cells(cfg SimConfig) []FCTCell {
	type spec struct {
		w    *workload.Empirical
		load float64
		st   Stack
	}
	var specs []spec
	for _, wname := range cfg.Workloads {
		w := workload.ByName(wname)
		if w == nil {
			panic(fmt.Sprintf("experiment: unknown workload %q", wname))
		}
		for _, load := range cfg.Loads {
			for _, pname := range cfg.Protocols {
				specs = append(specs, spec{w: w, load: load, st: MustStack(pname, StackOptions{})})
			}
		}
	}
	results := Parallel(len(specs), func(i int) RunResult {
		s := specs[i]
		flows := workload.GeneratePoisson(workload.PoissonConfig{
			Hosts:    cfg.Topo.Hosts(),
			Load:     s.load,
			HostRate: cfg.Topo.HostRate,
			Dist:     s.w,
			Count:    cfg.flowCount(s.w.Mean()),
			Seed:     sim.SubSeed(cfg.Seed, fmt.Sprintf("fig12-%s-%.2f", s.w.Name(), s.load)),
		})
		res := LeafSpineRun{
			Topo: cfg.Topo, Stack: s.st, Flows: flows, Horizon: cfg.Horizon,
			Faults:  cfg.newFaultPlan(),
			Metrics: cfg.newRunMetrics(), MetricsInterval: cfg.metricsInterval(),
		}.Run()
		dumpRunMetrics(cfg.MetricsDir,
			fmt.Sprintf("fig12_%s_%.2f_%s", s.w.Name(), s.load, s.st.Name), res.Metrics)
		return res
	})
	cells := make([]FCTCell, len(specs))
	for i, s := range specs {
		cells[i] = FCTCell{Workload: s.w.Name(), Load: s.load, Proto: s.st.Name, Res: results[i]}
	}
	return cells
}

// Fig12Tables renders one table per workload: rows are loads, columns
// are per-protocol AFCT and p99 in milliseconds.
func Fig12Tables(cfg SimConfig, cells []FCTCell) []*Table {
	var tables []*Table
	for _, wname := range cfg.Workloads {
		t := &Table{Title: fmt.Sprintf("Fig 12 — FCT, %s (%s)", wname, workload.Abbrev(wname))}
		t.Cols = []string{"load"}
		for _, p := range cfg.Protocols {
			t.Cols = append(t.Cols, p+" AFCT(ms)", p+" p99(ms)")
		}
		for _, load := range cfg.Loads {
			row := []string{fmt.Sprintf("%.1f", load)}
			for _, p := range cfg.Protocols {
				c := findCell(cells, wname, load, p)
				row = append(row,
					fmt.Sprintf("%.3f", c.Res.AFCT.Milliseconds()),
					fmt.Sprintf("%.3f", c.Res.P99.Milliseconds()))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}

func findCell(cells []FCTCell, w string, load float64, p string) FCTCell {
	for _, c := range cells {
		if c.Workload == w && c.Load == load && c.Proto == p {
			return c
		}
	}
	panic(fmt.Sprintf("experiment: missing cell %s/%.2f/%s", w, load, p))
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
// increasing number of flows under the five workloads.
func Fig13Cells(cfg SimConfig, flowCounts []int) []UtilCell {
	type spec struct {
		w  *workload.Empirical
		n  int
		st Stack
	}
	var specs []spec
	for _, wname := range cfg.Workloads {
		w := workload.ByName(wname)
		if w == nil {
			panic(fmt.Sprintf("experiment: unknown workload %q", wname))
		}
		for _, n := range flowCounts {
			for _, pname := range cfg.Protocols {
				specs = append(specs, spec{w: w, n: n, st: MustStack(pname, StackOptions{})})
			}
		}
	}
	results := Parallel(len(specs), func(i int) RunResult {
		s := specs[i]
		flows := workload.GeneratePoisson(workload.PoissonConfig{
			Hosts:    cfg.Topo.Hosts(),
			Load:     Fig13Load,
			HostRate: cfg.Topo.HostRate,
			Dist:     s.w,
			Count:    s.n,
			Seed:     sim.SubSeed(cfg.Seed, fmt.Sprintf("fig13-%s-%d", s.w.Name(), s.n)),
		})
		res := LeafSpineRun{
			Topo: cfg.Topo, Stack: s.st, Flows: flows, Horizon: cfg.Horizon,
			Faults:  cfg.newFaultPlan(),
			Metrics: cfg.newRunMetrics(), MetricsInterval: cfg.metricsInterval(),
		}.Run()
		dumpRunMetrics(cfg.MetricsDir,
			fmt.Sprintf("fig13_%s_%d_%s", s.w.Name(), s.n, s.st.Name), res.Metrics)
		return res
	})
	cells := make([]UtilCell, len(specs))
	for i, s := range specs {
		cells[i] = UtilCell{Workload: s.w.Name(), Flows: s.n, Proto: s.st.Name, Res: results[i]}
	}
	return cells
}

// Fig13Tables renders one table per workload: rows are flow counts,
// columns per-protocol bottleneck utilization.
func Fig13Tables(cfg SimConfig, flowCounts []int, cells []UtilCell) []*Table {
	var tables []*Table
	for _, wname := range cfg.Workloads {
		t := &Table{Title: fmt.Sprintf("Fig 13 — bottleneck utilization, %s (%s)", wname, workload.Abbrev(wname))}
		t.Cols = []string{"flows"}
		for _, p := range cfg.Protocols {
			t.Cols = append(t.Cols, p+" util")
		}
		for _, n := range flowCounts {
			row := []string{fmt.Sprintf("%d", n)}
			for _, p := range cfg.Protocols {
				for _, c := range cells {
					if c.Workload == wname && c.Flows == n && c.Proto == p {
						row = append(row, fmt.Sprintf("%.3f", c.Res.Utilization))
					}
				}
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}
