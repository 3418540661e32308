package experiment

import (
	"testing"

	"amrt/internal/metrics"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/workload"
)

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
