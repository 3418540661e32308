package experiment

import (
	"fmt"

	"amrt/internal/model"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// Fig5Row compares the model's fill-time bounds (Eqs. 4–5) against the
// simulated convergence of an AMRT flow whose window was cut to n−k of
// the n packets that saturate the path.
type Fig5Row struct {
	N, K            int
	ModelMinRTTs    int
	ModelMaxRTTs    int
	SimulatedRTTs   float64
	ConvergedToFull bool
}

// Fig5 runs the convergence experiment. The path is scaled so that one
// RTT holds exactly n full packets (rate = n·MSS·8/RTT); the flow
// starts with a blind window of n−k packets, so k slots are vacant, and
// we measure how many RTTs AMRT's marked grants need to saturate the
// link.
func Fig5(pairs [][2]int) []Fig5Row {
	rows := make([]Fig5Row, 0, len(pairs))
	const rtt = 100 * sim.Microsecond
	amrt := MustStack("AMRT", StackOptions{})
	for _, nk := range pairs {
		n, k := nk[0], nk[1]
		// A one-pair fan without jitter, its RTT 8 link delays.
		b := topo.Fan(1)
		b.Rate = sim.Rate(int64(n) * netsim.MSS * 8 * int64(sim.Second) / int64(rtt))
		b.LinkDelay, b.Jitter = rtt/8, 0

		var arrivals []sim.Time
		st := withConfig(amrt, func(c *transport.Config) {
			c.BlindWindow = n - k
			eng, onData := c.Shard.Eng(), c.OnData
			c.OnData = func(f *transport.Flow, pkt *netsim.Packet) {
				arrivals = append(arrivals, eng.Now())
				onData(f, pkt)
			}
		})
		// Long enough to observe convergence over many RTTs.
		LeafSpineRun{Topo: b, Stack: st, Flows: pairFlows(b, []int64{int64(n) * netsim.MSS * 60}, []sim.Time{0}), Horizon: sim.Second}.Run()

		// Count arrivals per RTT window from the first arrival; converged
		// when a window carries >= n-1 packets (the continuum analogue of
		// "all slots filled").
		row := Fig5Row{
			N: n, K: k,
			ModelMinRTTs: int(model.FillTimeMin(n, k, rtt) / rtt),
			ModelMaxRTTs: int(model.FillTimeMax(k, rtt) / rtt),
		}
		if len(arrivals) > 0 {
			t0 := arrivals[0]
			perRTT := map[int]int{}
			for _, a := range arrivals {
				perRTT[int((a-t0)/rtt)]++
			}
			for w := 0; w <= 200; w++ {
				if perRTT[w] >= n-1 {
					row.SimulatedRTTs = float64(w)
					row.ConvergedToFull = true
					break
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig5Table renders the convergence comparison.
func Fig5Table(rows []Fig5Row) *Table {
	t := &Table{
		Title: "Fig 5 — RTTs for AMRT to fill k vacant slots (model bounds vs simulation)",
		Cols:  []string{"n", "k", "model min", "model max", "simulated", "full rate"},
	}
	for _, r := range rows {
		simv := "-"
		if r.ConvergedToFull {
			simv = fmt.Sprintf("%.0f", r.SimulatedRTTs)
		}
		t.AddRow(fmt.Sprintf("%d", r.N), fmt.Sprintf("%d", r.K),
			fmt.Sprintf("%d", r.ModelMinRTTs), fmt.Sprintf("%d", r.ModelMaxRTTs),
			simv, fmt.Sprintf("%v", r.ConvergedToFull))
	}
	return t
}

// Fig7Tables regenerates the §5 analytical curves: min/max utilization
// gain versus R/C (sub-figures a, b) and min/max FCT gain versus TR/Ti
// (sub-figures c, d) for three flow sizes, with the paper's parameters
// (C = 1 Gbps, RTT = 100 µs, TR = 0).
func Fig7Tables() []*Table {
	sizes := []int64{64_000, 1_000_000, 10_000_000}
	sizeNames := []string{"64KB", "1MB", "10MB"}
	ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	trFracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

	util := &Table{Title: "Fig 7(a,b) — utilization gain vs R/C (C=1Gbps, RTT=100µs)", Cols: []string{"R/C"}}
	for _, n := range sizeNames {
		util.Cols = append(util.Cols, n+" min", n+" max")
	}
	curves := make([][]model.GainPoint, len(sizes))
	for i, s := range sizes {
		curves[i] = model.UtilizationGainCurve(sim.Gbps, 100*sim.Microsecond, netsim.MSS, s, ratios)
	}
	for ri, r := range ratios {
		row := []string{fmt.Sprintf("%.1f", r)}
		for i := range sizes {
			row = append(row, fmt.Sprintf("%.3f", curves[i][ri].MinGain), fmt.Sprintf("%.3f", curves[i][ri].MaxGain))
		}
		util.AddRow(row...)
	}

	fct := &Table{Title: "Fig 7(c,d) — FCT gain vs TR/Ti (R/C=0.5)", Cols: []string{"TR/Ti"}}
	for _, n := range sizeNames {
		fct.Cols = append(fct.Cols, n+" min", n+" max")
	}
	fcurves := make([][]model.GainPoint, len(sizes))
	for i, s := range sizes {
		fcurves[i] = model.FCTGainCurve(sim.Gbps, 100*sim.Microsecond, netsim.MSS, s, 0.5, trFracs)
	}
	for ti, tr := range trFracs {
		row := []string{fmt.Sprintf("%.1f", tr)}
		for i := range sizes {
			row = append(row, fmt.Sprintf("%.3f", fcurves[i][ti].MinGain), fmt.Sprintf("%.3f", fcurves[i][ti].MaxGain))
		}
		fct.AddRow(row...)
	}
	return []*Table{util, fct}
}
