package experiment

import (
	"amrt/internal/faults"
	"amrt/internal/sim"
	"amrt/internal/topo"
)

// SimConfig drives the large-scale figures (12, 13, 14). The defaults
// are a scaled-down instance of the paper's §8.1 setup (10 leaves ×
// 8 spines × 400 hosts) so the full figure set regenerates in minutes;
// the cmd/figures flags restore paper scale.
type SimConfig struct {
	Topo      topo.LeafSpineConfig
	Loads     []float64
	Workloads []string
	Protocols []string

	// FlowsPerRun is the number of flows per simulation; BytesBudget, if
	// positive, additionally caps the flow count so expected total bytes
	// stay below it (keeps heavy-tailed runs tractable).
	FlowsPerRun int
	BytesBudget int64

	Seed    int64
	Horizon sim.Time

	// Repeats averages the stochastic figures (Fig. 14) over this many
	// seeds.
	Repeats int

	// HomaDegrees lists the overcommitment levels Fig. 14 sweeps.
	HomaDegrees []int

	// FaultSpec, when non-empty, is a fault-injection spec (grammar in
	// docs/FAULTS.md, parsed by internal/faults) applied to every
	// figure simulation: link flaps, rate degradation, and control/data
	// loss processes. Each run gets a fresh plan seeded from Seed (or
	// the spec's own seed= clause), so fault randomness is reproducible
	// per run and independent across parallel runs.
	FaultSpec string

	// MetricsDir, when set, attaches a telemetry registry to every
	// figure-12/13 simulation and writes one JSON dump per run
	// (<dir>/<figure>_<workload>_<point>_<proto>.metrics.json; schema
	// in docs/TELEMETRY.md). MetricsInterval is the sampling period
	// (default 100 µs).
	MetricsDir      string
	MetricsInterval sim.Time
}

// DefaultSimConfig returns the scaled-down evaluation setup.
func DefaultSimConfig() SimConfig {
	return SimConfig{
		Topo:        topo.DefaultLeafSpine(),
		Loads:       []float64{0.1, 0.3, 0.5, 0.7},
		Workloads:   []string{"WebServer", "CacheFollower", "HadoopCluster", "WebSearch", "DataMining"},
		Protocols:   ProtocolNames(),
		FlowsPerRun: 2000,
		BytesBudget: 1 << 31, // 2 GiB of payload per run
		Seed:        1,
		Horizon:     20 * sim.Second,
		Repeats:     5,
		HomaDegrees: []int{2, 4, 8},
	}
}

// PaperSimConfig returns the full-scale §8.1 setup.
func PaperSimConfig() SimConfig {
	c := DefaultSimConfig()
	c.Topo = topo.PaperLeafSpine()
	c.Loads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
	c.FlowsPerRun = 20000
	c.BytesBudget = 0
	c.Repeats = 50
	return c
}

// newFaultPlan parses FaultSpec into a fresh plan for one run (plans
// hold per-run counters and queue-seed state, so they must not be
// shared across the parallel figure runs). The spec was validated at
// flag-parse time in the CLIs; a bad spec reaching this point panics.
func (c SimConfig) newFaultPlan() *faults.Plan {
	if c.FaultSpec == "" {
		return nil
	}
	p := faults.MustParse(c.FaultSpec)
	if p.Seed == 0 {
		p.Seed = c.Seed
	}
	return p
}

// flowCount applies the byte budget to the configured flow count.
func (c SimConfig) flowCount(meanBytes float64) int {
	n := c.FlowsPerRun
	if c.BytesBudget > 0 {
		if cap := int(float64(c.BytesBudget) / meanBytes); cap < n {
			n = cap
		}
	}
	if n < 50 {
		n = 50
	}
	return n
}
