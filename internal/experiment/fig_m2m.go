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

// Fig14Cells reproduces Fig. 14: 40 senders each open 2 connections to
// 2 receivers under the third leaf; a fraction of senders never respond
// to grants. It reports mean bottleneck utilization and mean maximum
// queue depth for AMRT and for Homa at each configured overcommitment
// degree, averaged over cfg.Repeats seeds.
func Fig14Cells(cfg SimConfig, ratios []float64) []M2MCell {
	tcfg := Fig14Topo()
	nSenders := 2 * tcfg.HostsPerLeaf
	senders := make([]int, nSenders)
	for i := range senders {
		senders[i] = i
	}
	receivers := []int{2 * tcfg.HostsPerLeaf, 2*tcfg.HostsPerLeaf + 1}

	variants := []struct {
		name string
		st   Stack
	}{{"AMRT", MustStack("AMRT", StackOptions{})}}
	for _, d := range cfg.HomaDegrees {
		variants = append(variants, struct {
			name string
			st   Stack
		}{fmt.Sprintf("Homa-d%d", d), MustStack("Homa", StackOptions{HomaDegree: d})})
	}

	type spec struct {
		vi    int
		ratio float64
		rep   int
	}
	var specs []spec
	for vi := range variants {
		for _, ratio := range ratios {
			for rep := 0; rep < max(1, cfg.Repeats); rep++ {
				specs = append(specs, spec{vi: vi, ratio: ratio, rep: rep})
			}
		}
	}

	results := Parallel(len(specs), func(i int) RunResult {
		s := specs[i]
		seed := sim.SubSeed(cfg.Seed, fmt.Sprintf("fig14-%s-%.2f-%d", variants[s.vi].name, s.ratio, s.rep))
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
		perm := rng.Perm(nSenders)
		silent := map[int]bool{}
		for _, idx := range perm[:int(float64(nSenders)*(1-s.ratio)+0.5)] {
			silent[idx] = true
		}
		for fi := range flows {
			if silent[flows[fi].Src] {
				flows[fi].Unresponsive = true
			}
		}
		// Responsive flows complete within tens of ms; a tight horizon
		// keeps the never-completing unresponsive flows from idling the
		// engine for the full default horizon.
		horizon := cfg.Horizon
		if horizon > 2*sim.Second {
			horizon = 2 * sim.Second
		}
		return LeafSpineRun{Topo: tcfg, Stack: variants[s.vi].st, Flows: flows, Horizon: horizon}.Run()
	})

	// Average repeats.
	var cells []M2MCell
	for vi, v := range variants {
		for _, ratio := range ratios {
			var util, maxq float64
			n := 0
			for i, s := range specs {
				if s.vi == vi && s.ratio == ratio {
					util += results[i].Utilization
					maxq += float64(results[i].MaxQueue)
					n++
				}
			}
			cells = append(cells, M2MCell{
				Variant: v.name, Ratio: ratio,
				Util: util / float64(n), MaxQueue: maxq / float64(n),
			})
		}
	}
	return cells
}

// Fig14Tables renders the two sub-figures: utilization and maximum
// queue length versus responsive ratio.
func Fig14Tables(cfg SimConfig, ratios []float64, cells []M2MCell) []*Table {
	variantNames := []string{"AMRT"}
	for _, d := range cfg.HomaDegrees {
		variantNames = append(variantNames, fmt.Sprintf("Homa-d%d", d))
	}
	util := &Table{Title: "Fig 14(a) — bottleneck utilization vs responsive ratio", Cols: append([]string{"ratio"}, variantNames...)}
	queue := &Table{Title: "Fig 14(b) — max queue length (pkts) vs responsive ratio", Cols: append([]string{"ratio"}, variantNames...)}
	lookup := func(v string, r float64) M2MCell {
		for _, c := range cells {
			if c.Variant == v && c.Ratio == r {
				return c
			}
		}
		panic("experiment: missing Fig14 cell")
	}
	for _, r := range ratios {
		urow := []string{fmt.Sprintf("%.1f", r)}
		qrow := []string{fmt.Sprintf("%.1f", r)}
		for _, v := range variantNames {
			c := lookup(v, r)
			urow = append(urow, fmt.Sprintf("%.3f", c.Util))
			qrow = append(qrow, fmt.Sprintf("%.1f", c.MaxQueue))
		}
		util.AddRow(urow...)
		queue.AddRow(qrow...)
	}
	return []*Table{util, queue}
}
