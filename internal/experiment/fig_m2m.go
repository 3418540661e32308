package experiment

import (
	"fmt"

	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

// M2MCell is one (variant, responsive ratio) point of Fig. 14,
// averaged over repeats.
type M2MCell struct {
	Variant  string // "AMRT" or "Homa-d<degree>"
	Ratio    float64
	Util     float64
	MaxQueue float64 // packets, averaged over repeats
}

// Fig14Topo is the §8.2 topology: 3 leaves; the first two hold the
// senders, the third the receivers.
func Fig14Topo() topo.LeafSpineConfig {
	c := topo.DefaultLeafSpine()
	c.Leaves, c.Spines, c.HostsPerLeaf = 3, 2, 20
	return c
}

// fig14Variants returns Fig 14's legs in column order: AMRT, then Homa
// at each of cfg's overcommitment degrees.
func fig14Variants(cfg SimConfig) (names []string, stacks []Stack) {
	names, stacks = []string{"AMRT"}, []Stack{MustStack("AMRT", StackOptions{})}
	for _, d := range cfg.HomaDegrees {
		names = append(names, fmt.Sprintf("Homa-d%d", d))
		stacks = append(stacks, MustStack("Homa", StackOptions{HomaDegree: d}))
	}
	return names, stacks
}

// Fig14Cells reproduces Fig. 14: 40 senders each open 2 connections to
// 2 receivers under the third leaf; a fraction of senders never respond
// to grants. It reports mean bottleneck utilization and mean maximum
// queue depth for AMRT and for Homa at each configured overcommitment
// degree, averaged over cfg.Repeats seeds. Cells come in variant, ratio
// order.
func Fig14Cells(cfg SimConfig, ratios []float64) []M2MCell {
	tcfg := Fig14Topo()
	nSenders := 2 * tcfg.HostsPerLeaf
	senders := make([]int, nSenders)
	for i := range senders {
		senders[i] = i
	}
	receivers := []int{2 * tcfg.HostsPerLeaf, 2*tcfg.HostsPerLeaf + 1}
	// Responsive flows complete within tens of ms; a tight horizon
	// keeps the never-completing unresponsive flows from idling the
	// engine for the full default horizon.
	horizon := min(cfg.Horizon, 2*sim.Second)
	reps := max(1, cfg.Repeats)

	names, stacks := fig14Variants(cfg)
	var cells []cell
	for vi, name := range names {
		for _, ratio := range ratios {
			for rep := 0; rep < reps; rep++ {
				seed := sim.SubSeed(cfg.Seed, fmt.Sprintf("fig14-%s-%.2f-%d", name, ratio, rep))
				flows := func() []workload.FlowSpec { return m2mFlows(senders, receivers, ratio, seed) }
				cells = append(cells, cell{run: LeafSpineRun{Topo: tcfg, Stack: stacks[vi], Horizon: horizon}, flows: flows})
			}
		}
	}
	results := runCells("", cells)

	// Average repeats.
	var out []M2MCell
	for _, name := range names {
		for _, ratio := range ratios {
			var util, maxq float64
			for _, r := range results[:reps] {
				util += r.Utilization
				maxq += float64(r.MaxQueue)
			}
			results = results[reps:]
			out = append(out, M2MCell{
				Variant: name, Ratio: ratio,
				Util: util / float64(reps), MaxQueue: maxq / float64(reps),
			})
		}
	}
	return out
}

// m2mFlows builds one Fig 14 run's flows: two connections from every
// sender, one to each receiver, with a (1-ratio) fraction of the
// senders silent.
func m2mFlows(senders, receivers []int, ratio float64, seed int64) []workload.FlowSpec {
	flows := workload.ManyToMany(senders, receivers, 2, workload.Fixed(1_000_000), 0, seed)
	// Stagger starts across 10 ms: the experiment measures sustained
	// many-to-many scheduling with silent senders, not a synchronized
	// 40-into-1 incast of unscheduled windows.
	startRNG := sim.NewRNG(sim.SubSeed(seed, "starts"))
	for fi := range flows {
		flows[fi].Start = sim.Time(startRNG.Int63n(int64(10 * sim.Millisecond)))
	}
	// Mark a random (1-ratio) fraction of senders unresponsive.
	rng := sim.NewRNG(sim.SubSeed(seed, "unresponsive"))
	perm := rng.Perm(len(senders))
	silent := map[int]bool{}
	for _, idx := range perm[:int(float64(len(senders))*(1-ratio)+0.5)] {
		silent[idx] = true
	}
	for fi := range flows {
		if silent[flows[fi].Src] {
			flows[fi].Unresponsive = true
		}
	}
	return flows
}

// Fig14Tables renders the two sub-figures: utilization and maximum
// queue length versus responsive ratio. cells are Fig14Cells(cfg,
// ratios).
func Fig14Tables(cfg SimConfig, ratios []float64, cells []M2MCell) []*Table {
	names, _ := fig14Variants(cfg)
	rows := decimalLabels(ratios)
	at := func(r, c int) M2MCell { return cells[c*len(ratios)+r] }
	return []*Table{
		gridTable("Fig 14(a) — bottleneck utilization vs responsive ratio", "ratio", rows, names, []string{""},
			func(r, c int) []string { return []string{fmt.Sprintf("%.3f", at(r, c).Util)} }),
		gridTable("Fig 14(b) — max queue length (pkts) vs responsive ratio", "ratio", rows, names, []string{""},
			func(r, c int) []string { return []string{fmt.Sprintf("%.1f", at(r, c).MaxQueue)} }),
	}
}
