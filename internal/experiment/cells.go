package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"amrt/internal/metrics"
	"amrt/internal/sim"
	"amrt/internal/workload"
)

// cell is one large-figure simulation.
type cell struct {
	// run is the simulation without its flows.
	run LeafSpineRun
	// flows builds the run's flows inside the worker, so a paper-scale
	// grid never holds every cell's flow list at once.
	flows func() []workload.FlowSpec
	// name is the file name its telemetry dump takes.
	name string
}

// runCells is the one runner of the large figures: Figs 12, 13 and 14,
// the size breakdown and the SIRD head-to-head declare their cells and
// read the results back by index. It runs cells on the Parallel pool
// and returns their results in cell order. A run that carries a
// registry is dumped as dir/<name>.metrics.json; a failed write is
// reported on stderr, not fatal to the figure.
func runCells(dir string, cells []cell) []RunResult {
	return Parallel(len(cells), func(i int) RunResult {
		c := cells[i]
		c.run.Flows = c.flows()
		res := c.run.Run()
		if err := c.dump(dir, res.Metrics); err != nil {
			fmt.Fprintf(os.Stderr, "experiment: writing metrics %s: %v\n", c.name, err)
		}
		return res
	})
}

// dump writes reg as dir/<name>.metrics.json, creating dir if needed.
// It is a no-op on a nil registry.
func (c cell) dump(dir string, reg *metrics.Registry) error {
	if reg == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, metricsFileName(c.name)), buf.Bytes(), 0o666)
}

// poissonFlows returns the flow builder of one Poisson run on c's
// fabric: count flows drawn from w at load, seeded from c.Seed and
// label.
func (c SimConfig) poissonFlows(w *workload.Empirical, load float64, count int, label string) func() []workload.FlowSpec {
	return func() []workload.FlowSpec {
		return workload.GeneratePoisson(workload.PoissonConfig{
			Hosts:    c.Topo.Hosts(),
			Load:     load,
			HostRate: c.Topo.HostRate,
			Dist:     w,
			Count:    count,
			Seed:     sim.SubSeed(c.Seed, label),
		})
	}
}

// mustWorkload resolves a workload by name, panicking on an unknown one.
func mustWorkload(name string) *workload.Empirical {
	w := workload.ByName(name)
	if w == nil {
		panic(fmt.Sprintf("experiment: unknown workload %q", name))
	}
	return w
}

// gridTable renders the shape Figs 12, 13 and 14 share: one row per
// row label under the corner header, and per column one header
// "<col><unit>" for each unit, filled from value(r, c) — which returns
// one string per unit.
func gridTable(title, corner string, rows, cols, units []string, value func(r, c int) []string) *Table {
	t := &Table{Title: title, Cols: []string{corner}}
	for _, col := range cols {
		for _, u := range units {
			t.Cols = append(t.Cols, col+u)
		}
	}
	for r, label := range rows {
		row := []string{label}
		for c := range cols {
			row = append(row, value(r, c)...)
		}
		t.AddRow(row...)
	}
	return t
}

// decimalLabels formats each value as the shortest decimal that parses
// back to it, with at least one decimal place: 0.25 stays 0.25 and 1
// prints as 1.0.
func decimalLabels(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = strconv.FormatFloat(v, 'f', -1, 64)
		if !strings.Contains(out[i], ".") {
			out[i] += ".0"
		}
	}
	return out
}
