package experiment

import (
	"fmt"

	"amrt/internal/core"
	"amrt/internal/netsim"
	"amrt/internal/pool"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// rampRun measures an AMRT variant (or baseline stack) on the ramp
// scenario: a single 8 MB flow starting from an 8-packet window on an
// idle 10 G path. It returns the FCT and the fraction of grants marked.
func rampRun(st Stack, blind int) (fct sim.Time, done bool) {
	b := topo.Fan(1)
	st = withConfig(st, func(c *transport.Config) { c.BlindWindow = blind })
	f := LeafSpineRun{Topo: b, Stack: st, Flows: pairFlows(b, []int64{8_000_000}, []sim.Time{0}), Horizon: 2 * sim.Second}.Run().Flows[0]
	return f.FCT(), f.Done
}

// MarkingAblation sweeps the anti-ECN design choices DESIGN.md calls
// out — marking-gap factor, multi-hop combine operator, and marked-grant
// burst — on the ramp scenario, with pHost as the no-marking baseline.
func MarkingAblation() *Table {
	t := &Table{
		Title: "Ablation — anti-ECN design choices (8MB flow, 8-pkt initial window, idle 10G path)",
		Cols:  []string{"variant", "FCT(ms)", "completed", "vs default"},
	}
	type variant struct {
		name string
		st   Stack
	}
	mk := func(name string, mut func(*core.Config)) variant {
		cfg := core.DefaultConfig()
		if mut != nil {
			mut(&cfg)
		}
		return variant{name: name, st: amrtStack(cfg)}
	}
	variants := []variant{
		mk("AMRT default (gap=1.0, AND, burst=2)", nil),
		mk("gap factor 0.5", func(c *core.Config) { c.GapFactor = 0.5 }),
		mk("gap factor 2.0", func(c *core.Config) { c.GapFactor = 2.0 }),
		mk("OR combine", func(c *core.Config) { c.Combine = netsim.CombineOR }),
		mk("grant burst 3", func(c *core.Config) { c.GrantBurst = 3 }),
		{name: "pHost (no marking)", st: MustStack("pHost", StackOptions{})},
	}
	results := pool.Parallel(len(variants), func(i int) sim.Time {
		fct, done := rampRun(variants[i].st, 8)
		if !done {
			return -1
		}
		return fct
	})
	base := results[0]
	for i, v := range variants {
		fct := results[i]
		if fct < 0 {
			t.AddRow(v.name, "-", "false", "-")
			continue
		}
		t.AddRow(v.name, fmt.Sprintf("%.3f", fct.Milliseconds()), "true",
			fmt.Sprintf("%+.1f%%", 100*(float64(fct)/float64(base)-1)))
	}
	return t
}

// QueueCapAblation sweeps AMRT's switch data-queue cap under an
// 8-to-1 incast, reporting tail FCT, drops, and peak queue depth — the
// latency-vs-loss tradeoff behind the paper's choice of 8.
func QueueCapAblation() *Table {
	t := &Table{
		Title: "Ablation — AMRT switch data-queue cap (8-to-1 incast, 500KB each)",
		Cols:  []string{"cap(pkts)", "AFCT(ms)", "p99(ms)", "drops", "max queue"},
	}
	caps := []int{4, 8, 16, 64, 128}
	type out struct {
		afct, p99 sim.Time
		drops     int64
		maxq      int
	}
	results := pool.Parallel(len(caps), func(i int) out {
		cfg := core.DefaultConfig()
		cfg.DataQueueCap = caps[i]
		b := topo.Fan(8)
		res := LeafSpineRun{Topo: b, Stack: amrtStack(cfg), Flows: incast(b, 8, 500_000), Horizon: 5 * sim.Second}.Run()
		return out{afct: res.AFCT, p99: res.P99, drops: res.Drops, maxq: res.MaxQueue}
	})
	for i, cap := range caps {
		r := results[i]
		t.AddRow(fmt.Sprintf("%d", cap),
			fmt.Sprintf("%.3f", r.afct.Milliseconds()),
			fmt.Sprintf("%.3f", r.p99.Milliseconds()),
			fmt.Sprintf("%d", r.drops),
			fmt.Sprintf("%d", r.maxq))
	}
	return t
}
