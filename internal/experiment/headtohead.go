package experiment

import (
	"fmt"

	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

// This file is the SIRD head-to-head: the sender-informed stack against
// the receiver-driven baselines it is positioned between. SIRD's pitch
// is that a bounded shared credit pool holds switch buffers near-empty
// without giving up goodput; the experiment pins that trade-off on the
// two fat-tree workloads where buffer pressure differs most — a
// synchronized incast (deep transient queues) and an all-to-all shuffle
// (sustained load, shallow queues).

// HeadToHeadCell is one (workload, protocol) point of the SIRD
// head-to-head comparison.
type HeadToHeadCell struct {
	Workload string // "incast" or "shuffle"
	Stack    string
	// Utilization is the byte-weighted backlogged-time goodput
	// utilization (see RunResult.Utilization).
	Utilization float64
	AFCT        sim.Time
	P99         sim.Time
	// MaxQueue is the deepest egress downlink queue seen anywhere, in
	// packets — the buffer-occupancy axis of the comparison.
	MaxQueue  int
	Drops     int64
	Completed int
	Total     int
}

// HeadToHeadProtocols returns the comparison legs — pHost (per-packet
// ticketing, no demand signal), AMRT (anti-ECN marking), and SIRD
// (sender-informed pool) — in registry presentation order, so the
// figure inherits the paper's ordering without keeping its own list.
func HeadToHeadProtocols() []string {
	in := map[string]bool{"pHost": true, "AMRT": true, "SIRD": true}
	var out []string
	for _, n := range ProtocolNames() {
		if in[n] {
			out = append(out, n)
		}
	}
	return out
}

// headToHeadWorkload is one traffic shape of the comparison.
type headToHeadWorkload struct {
	name    string
	flows   func() []workload.FlowSpec
	horizon sim.Time
}

// headToHeadWorkloads returns the two fat-tree workloads on the given
// topology. The incast matches the SIRD golden-shard cell, so the
// figure and the byte-identity proof exercise the same scenario.
func headToHeadWorkloads(cfg topo.FatTreeConfig) []headToHeadWorkload {
	return []headToHeadWorkload{
		{
			name: "incast",
			flows: func() []workload.FlowSpec {
				return workload.GenerateIncast(workload.IncastConfig{
					Hosts:    cfg.Hosts(),
					Degree:   8,
					Bytes:    64 << 10,
					Load:     0.6,
					HostRate: cfg.HostRate,
					Count:    64,
					Seed:     7,
				})
			},
			horizon: 20 * sim.Millisecond,
		},
		{
			name: "shuffle",
			flows: func() []workload.FlowSpec {
				return workload.GenerateShuffle(workload.ShuffleConfig{
					Hosts: cfg.Hosts(),
					Width: 4,
					Bytes: 128 << 10,
				})
			},
			horizon: 20 * sim.Millisecond,
		},
	}
}

// HeadToHead runs the SIRD comparison on a k=4 fat-tree with the
// auditor attached (every run must stay invariant-silent, including the
// credit-pool ledger) and returns one cell per (workload, protocol) in
// workload-major order. The shared opts struct is handed to every leg;
// each constructor reads only its own fields.
func HeadToHead(opts StackOptions) []HeadToHeadCell {
	cfg := topo.DefaultFatTree()
	cfg.K = 4
	var cells []cell
	var names []string
	for _, wl := range headToHeadWorkloads(cfg) {
		for _, p := range HeadToHeadProtocols() {
			cells = append(cells, cell{
				run:   LeafSpineRun{Topo: cfg, Stack: MustStack(p, opts), Horizon: wl.horizon, Audit: true},
				flows: wl.flows,
			})
			names = append(names, wl.name)
		}
	}
	out := make([]HeadToHeadCell, len(cells))
	for i, r := range runCells("", cells) {
		out[i] = HeadToHeadCell{
			Workload:    names[i],
			Stack:       r.Stack,
			Utilization: r.Utilization,
			AFCT:        r.AFCT,
			P99:         r.P99,
			MaxQueue:    r.MaxQueue,
			Drops:       r.Drops,
			Completed:   r.Completed,
			Total:       r.Total,
		}
	}
	return out
}

// HeadToHeadTable renders the cells as the comparison figure: one row
// per (workload, protocol), goodput next to the buffer-occupancy column
// the trade-off is read from.
func HeadToHeadTable(cells []HeadToHeadCell) *Table {
	t := &Table{
		Title: "SIRD head-to-head — fat-tree k=4, incast + shuffle",
		Cols:  []string{"workload", "stack", "done", "util", "AFCT(us)", "p99(us)", "maxq(pkts)", "drops"},
	}
	for _, c := range cells {
		t.AddRow(c.Workload, c.Stack,
			fmt.Sprintf("%d/%d", c.Completed, c.Total),
			fmt.Sprintf("%.3f", c.Utilization),
			fmt.Sprintf("%.1f", c.AFCT.Microseconds()),
			fmt.Sprintf("%.1f", c.P99.Microseconds()),
			fmt.Sprintf("%d", c.MaxQueue),
			fmt.Sprintf("%d", c.Drops))
	}
	return t
}
