package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"amrt/internal/faults"
	"amrt/internal/metrics"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

// This file is the golden-trace equivalence proof required by the
// timing-wheel migration: the wheel and the reference heap scheduler
// must produce byte-identical results — down to the serialized metrics
// dumps — for the paper's Fig-1 and Fig-9 workloads at the same seed.
// Any divergence means the wheel broke the (at, seq) dispatch order.

// underScheduler runs fn with the process-wide default scheduler set to
// kind, restoring the previous default afterwards.
func underScheduler(kind sim.SchedulerKind, fn func()) {
	prev := sim.DefaultScheduler()
	sim.SetDefaultScheduler(kind)
	defer sim.SetDefaultScheduler(prev)
	fn()
}

// serializeSeries writes every sample with full float precision: two
// runs agree iff their traces are bit-identical.
func serializeSeries(buf *bytes.Buffer, series []*stats.Series) {
	for _, s := range series {
		fmt.Fprintf(buf, "series %s\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(buf, "%d %x\n", int64(p.T), p.V)
		}
	}
}

// goldenMotivation serializes everything one of the motivation figure
// bodies (fig1, fig2) produces at the given shard count.
func goldenMotivation(kind sim.SchedulerKind, fig func(Stack, LeafSpineRun) MotivationResult, stack string, nshards int) string {
	var buf bytes.Buffer
	underScheduler(kind, func() {
		res := fig(MustStack(stack, StackOptions{}), LeafSpineRun{Shards: nshards})
		serializeSeries(&buf, res.FlowSeries)
		serializeSeries(&buf, []*stats.Series{res.Util, res.LinkUtil})
		res.Phases.Fprint(&buf)
	})
	return buf.String()
}

// goldenTestbed is the same for the testbed figure bodies (fig9, fig11).
func goldenTestbed(kind sim.SchedulerKind, fig func(Stack, LeafSpineRun) TestbedResult, stack string, nshards int) string {
	var buf bytes.Buffer
	underScheduler(kind, func() {
		res := fig(MustStack(stack, StackOptions{}), LeafSpineRun{Shards: nshards})
		serializeSeries(&buf, res.Series)
		res.Summary.Fprint(&buf)
		for _, f := range res.Flows {
			fmt.Fprintf(&buf, "flow %d done=%v end=%d\n", f.ID, f.Done, int64(f.End))
		}
	})
	return buf.String()
}

func TestGoldenTraceFig1(t *testing.T) {
	for _, stack := range []string{"pHost", "AMRT"} {
		wheel := goldenMotivation(sim.SchedulerWheel, fig1, stack, 1)
		heap := goldenMotivation(sim.SchedulerHeap, fig1, stack, 1)
		if wheel != heap {
			t.Errorf("Fig1 %s trace differs between wheel and heap schedulers", stack)
		}
	}
}

func TestGoldenTraceFig9(t *testing.T) {
	if goldenTestbed(sim.SchedulerWheel, fig9, "AMRT", 1) != goldenTestbed(sim.SchedulerHeap, fig9, "AMRT", 1) {
		t.Error("Fig9 trace differs between wheel and heap schedulers")
	}
}

// TestGoldenTraceMetricsDump runs the full leaf-spine telemetry workload
// under both schedulers and requires byte-identical JSON dumps — the
// strongest end-to-end statement of the determinism contract, since the
// dump embeds every sampled queue/utilization/counter series.
func TestGoldenTraceMetricsDump(t *testing.T) {
	dump := func(kind sim.SchedulerKind) string {
		var j bytes.Buffer
		underScheduler(kind, func() {
			reg := metrics.NewRegistry()
			metricsTestRun(reg)
			if err := reg.WriteJSON(&j); err != nil {
				t.Fatal(err)
			}
		})
		return j.String()
	}
	wheel := dump(sim.SchedulerWheel)
	heap := dump(sim.SchedulerHeap)
	if wheel == "" {
		t.Fatal("empty metrics dump")
	}
	if wheel != heap {
		t.Fatal("metrics JSON differs between wheel and heap schedulers")
	}
}

// TestGoldenTraceNodeFaults extends the scheduler-equivalence proof to
// the node-fault machinery: a host crash, a leaf reboot, and an ECMP
// rehash under Poisson traffic — auditor on — must produce byte-identical
// metrics dumps and flow outcomes under the wheel and heap schedulers.
// Crash cleanup, reboot flushes, and the watchdog all schedule events;
// any ordering divergence between the schedulers shows up here.
func TestGoldenTraceNodeFaults(t *testing.T) {
	dump := func(kind sim.SchedulerKind) string {
		var buf bytes.Buffer
		underScheduler(kind, func() {
			cfg := topo.DefaultLeafSpine()
			cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 4
			flows := workload.GeneratePoisson(workload.PoissonConfig{
				Hosts:    cfg.Hosts(),
				Load:     0.6,
				HostRate: cfg.HostRate,
				Dist:     workload.WebSearch(),
				Count:    80,
				Seed:     11,
			})
			plan := faults.MustParse("crash=h1.2,at=1ms,up=3ms;reboot=spine0,at=2ms,up=4ms;rehash=5ms")
			plan.Seed = 11
			reg := metrics.NewRegistry()
			res := LeafSpineRun{
				Topo:    cfg,
				Stack:   MustStack("AMRT", StackOptions{}),
				Flows:   flows,
				Horizon: 5 * sim.Second,
				Metrics: reg,
				Faults:  plan,
				Audit:   true,
			}.Run()
			if err := reg.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			for _, o := range res.Outcomes {
				fmt.Fprintf(&buf, "flow %d %v last=%d\n", o.ID, o.Outcome, int64(o.LastProgress))
			}
		})
		return buf.String()
	}
	wheel := dump(sim.SchedulerWheel)
	heap := dump(sim.SchedulerHeap)
	if wheel == "" {
		t.Fatal("empty node-fault dump")
	}
	if wheel != heap {
		t.Fatal("node-fault trace differs between wheel and heap schedulers")
	}
}
