package experiment

import (
	"bytes"
	"strings"
	"testing"

	"amrt/internal/metrics"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

// metricsTestRun is a small full-stack simulation: AMRT on a 2×2
// fabric, 120 WebSearch flows, fixed seed.
func metricsTestRun(reg *metrics.Registry) RunResult {
	cfg := topo.DefaultLeafSpine()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 4
	flows := workload.GeneratePoisson(workload.PoissonConfig{
		Hosts:    cfg.Hosts(),
		Load:     0.6,
		HostRate: cfg.HostRate,
		Dist:     workload.WebSearch(),
		Count:    120,
		Seed:     7,
	})
	return LeafSpineRun{
		Topo:    cfg,
		Stack:   MustStack("AMRT", StackOptions{}),
		Flows:   flows,
		Horizon: 5 * sim.Second,
		Metrics: reg,
	}.Run()
}

// TestMetricsDeterminism is the regression test for the telemetry
// determinism contract: two identical runs must produce byte-identical
// JSON and CSV dumps.
func TestMetricsDeterminism(t *testing.T) {
	var dumps [2]string
	var csvs [2]string
	for i := range dumps {
		reg := metrics.NewRegistry()
		metricsTestRun(reg)
		var j, c bytes.Buffer
		if err := reg.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		dumps[i], csvs[i] = j.String(), c.String()
	}
	if dumps[0] != dumps[1] {
		t.Fatal("metrics JSON differs between identical runs")
	}
	if csvs[0] != csvs[1] {
		t.Fatal("metrics CSV differs between identical runs")
	}
	for _, want := range []string{
		`"schema": "amrt-metrics/v1"`,
		"transport.flows_started",
		"transport.flows_completed",
		"amrt.grants_sent",
		"net.delivered",
		".queue_pkts",
		".mark_rate",
		".util",
	} {
		if !strings.Contains(dumps[0], want) {
			t.Errorf("dump missing %q", want)
		}
	}
}

// TestMetricsDoNotPerturbSimulation asserts that attaching telemetry
// changes nothing observable about the simulation itself: sampling
// callbacks read state, they never schedule protocol events. The
// ticker itself runs on the engine, but in the late observer band,
// which RunResult.Events excludes — so even the event count must
// match exactly.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	plain := metricsTestRun(nil)
	reg := metrics.NewRegistry()
	instrumented := metricsTestRun(reg)

	if plain.Completed != instrumented.Completed ||
		plain.AFCT != instrumented.AFCT ||
		plain.P99 != instrumented.P99 ||
		plain.Drops != instrumented.Drops ||
		plain.MaxQueue != instrumented.MaxQueue ||
		plain.Utilization != instrumented.Utilization ||
		plain.LastEnd != instrumented.LastEnd {
		t.Fatalf("telemetry perturbed the simulation:\nplain:        %+v\ninstrumented: %+v",
			plain, instrumented)
	}
	if instrumented.Events != plain.Events {
		t.Fatalf("late-band ticker leaked into the event count: %d != %d", instrumented.Events, plain.Events)
	}
}

// TestOpenEndedRunObserversStop: without a horizon the run's observers
// tick until the last live flow finishes and then stop, so the run
// returns — with the metrics sampler and the auditor attached — and the
// last metrics sample is taken at or after the last flow's end.
func TestOpenEndedRunObserversStop(t *testing.T) {
	cfg := topo.DefaultLeafSpine()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 4
	flows := workload.GeneratePoisson(workload.PoissonConfig{
		Hosts: cfg.Hosts(), Load: 0.6, HostRate: cfg.HostRate,
		Dist: workload.WebSearch(), Count: 40, Seed: 7,
	})
	reg := metrics.NewRegistry()
	probe := reg.Series("test.probe", func(sim.Time) float64 { return 0 })
	res := LeafSpineRun{
		Topo: cfg, Stack: MustStack("AMRT", StackOptions{}), Flows: flows,
		Metrics: reg, Audit: true,
	}.Run()

	if res.Completed != res.Total {
		t.Fatalf("%d/%d flows completed", res.Completed, res.Total)
	}
	if res.AuditChecks < 2 || res.AuditViolations != 0 {
		t.Errorf("audit: %d checks, %d violations", res.AuditChecks, res.AuditViolations)
	}
	if probe.Len() < 2 || probe.Dropped() != 0 {
		t.Fatalf("probe series: %d samples, %d dropped", probe.Len(), probe.Dropped())
	}
	last := probe.FirstAt() + sim.Time(probe.Len()-1)*probe.Interval()
	if last < res.LastEnd {
		t.Errorf("last metrics sample at %v, before the last flow ended at %v", last, res.LastEnd)
	}
	if last >= res.LastEnd+probe.Interval() {
		t.Errorf("last metrics sample at %v, more than one interval after the last flow ended at %v", last, res.LastEnd)
	}
}
