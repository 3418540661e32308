package topo

import (
	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// ClosConfig parameterizes a three-tier folded-Clos fabric of the kind
// production datacenters oversubscribe: Pods of leaf switches under
// aggregation switches, joined by a top tier of core (spine) switches.
// Every leaf connects to every aggregation switch of its pod, and
// every aggregation switch connects to every core, so host count and
// oversubscription are independent knobs — unlike the fat-tree, whose
// arity fixes both. Heterogeneous 10/25/100G tiers are the expected
// configuration (hosts at HostRate, leaf uplinks at FabricRate, core
// links at CoreRate).
type ClosConfig struct {
	// Pods is the number of leaf+aggregation pods.
	Pods int
	// LeavesPerPod is the number of leaf (ToR) switches in each pod.
	LeavesPerPod int
	// AggsPerPod is the number of aggregation switches in each pod;
	// each leaf has one uplink to each.
	AggsPerPod int
	// Cores is the number of top-tier switches; each aggregation
	// switch has one uplink to each.
	Cores int
	// HostsPerLeaf is the number of hosts under each leaf.
	HostsPerLeaf int

	// HostRate is the host <-> leaf link rate (default 25 Gbps).
	HostRate sim.Rate
	// FabricRate is the leaf <-> aggregation link rate; 0 means
	// HostRate.
	FabricRate sim.Rate
	// CoreRate is the aggregation <-> core link rate; 0 means
	// FabricRate.
	CoreRate sim.Rate

	// LinkDelay is the one-way propagation delay of every link. A
	// cross-pod path crosses 6 links each way, so RTT = 12×LinkDelay
	// (+serialization). Default ≈ 8.33 µs for a ~100 µs cross-pod RTT.
	LinkDelay sim.Time

	// Jitter is the per-delivery random delay bound (see
	// netsim.Network.SetJitter); JitterSeed seeds its stream.
	Jitter     sim.Time
	JitterSeed int64
}

// DefaultClos is a 2:1-oversubscribed 64-host heterogeneous fabric:
// 2 pods × 2 leaves × 16 hosts at 25 Gbps under 100 Gbps leaf uplinks
// (16×25 / 2×100 = 2:1 at the leaf), 2 aggregation switches per pod,
// 2 cores at 100 Gbps, ~100 µs cross-pod RTT.
func DefaultClos() ClosConfig {
	c := ClosConfig{
		Pods:         2,
		LeavesPerPod: 2,
		AggsPerPod:   2,
		Cores:        2,
		HostsPerLeaf: 16,
		HostRate:     25 * sim.Gbps,
		FabricRate:   100 * sim.Gbps,
		CoreRate:     100 * sim.Gbps,
		LinkDelay:    8333 * sim.Nanosecond, // 12 hops ≈ 100µs RTT
	}
	c.Jitter = c.HostRate.TxTime(netsim.MSS) / 2
	return c
}

// withDefaults fills zero rate tiers.
func (c ClosConfig) withDefaults() ClosConfig {
	if c.FabricRate == 0 {
		c.FabricRate = c.HostRate
	}
	if c.CoreRate == 0 {
		c.CoreRate = c.FabricRate
	}
	return c
}

// Hosts implements Builder: Pods × LeavesPerPod × HostsPerLeaf.
func (c ClosConfig) Hosts() int { return c.Pods * c.LeavesPerPod * c.HostsPerLeaf }

// AccessRate implements Builder: the host <-> leaf link rate.
func (c ClosConfig) AccessRate() sim.Rate { return c.HostRate }

// Oversubscription returns the leaf-tier oversubscription ratio: host
// bandwidth into a leaf over its uplink bandwidth,
// (HostsPerLeaf·HostRate)/(AggsPerPod·FabricRate). 1.0 is
// non-blocking; production fabrics commonly run 2–4.
func (c ClosConfig) Oversubscription() float64 {
	c = c.withDefaults()
	return float64(c.HostsPerLeaf) * float64(c.HostRate) /
		(float64(c.AggsPerPod) * float64(c.FabricRate))
}

// BisectionBandwidth returns the aggregate rate crossing a bisection of
// the pods: Cores × AggsPerPod × Pods/2 core links × CoreRate.
func (c ClosConfig) BisectionBandwidth() sim.Rate {
	c = c.withDefaults()
	return sim.Rate(int64(c.Cores*c.AggsPerPod*c.Pods/2) * int64(c.CoreRate))
}

// Canonical implements Builder.
func (c ClosConfig) Canonical() string {
	c = c.withDefaults()
	return canon("clos",
		"pods", c.Pods, "leaves", c.LeavesPerPod, "aggs", c.AggsPerPod,
		"cores", c.Cores, "hostsperleaf", c.HostsPerLeaf,
		"hostrate", int64(c.HostRate), "fabricrate", int64(c.FabricRate), "corerate", int64(c.CoreRate),
		"linkdelay", int64(c.LinkDelay), "jitter", int64(c.Jitter), "jitterseed", c.JitterSeed,
	)
}

// Build implements Builder: the three-tier Clos on a fresh network with
// ov laid over it and shortest-path ECMP routes installed. Switch names
// are "leafP.I", "aggP.I" (pod P, index I) and "coreI"; host names are
// "hP.L.I" (pod, leaf, index) — the names the fault-spec grammar
// resolves against. It panics on non-positive dimensions.
func (c ClosConfig) Build(ov Overlay) *Fabric {
	if c.Pods <= 0 || c.LeavesPerPod <= 0 || c.AggsPerPod <= 0 ||
		c.Cores <= 0 || c.HostsPerLeaf <= 0 {
		panic("topo: clos dimensions must be positive")
	}
	c = c.withDefaults()
	perPod := c.LeavesPerPod + c.AggsPerPod
	w := newWiring(ov, c.LinkDelay, c.Jitter, c.JitterSeed, c.Hosts(), c.Cores+c.Pods*perPod,
		c.Pods*c.AggsPerPod*(c.LeavesPerPod+c.Cores))
	n := w.net
	f := w.f
	f.AccessRate, f.BaseRTT = c.HostRate, 12*c.LinkDelay
	// f.Switches lists each pod's leaves, then its aggregations, and the
	// cores last; the cores are made first, then each pod's aggregations
	// before its leaves.
	f.Switches = f.Switches[:cap(f.Switches)]
	cores := f.Switches[c.Pods*perPod:]
	for i := range cores {
		cores[i] = w.newSwitch(w.name("core", i), c.Pods*c.AggsPerPod)
	}
	for p := 0; p < c.Pods; p++ {
		leaves := f.Switches[p*perPod : p*perPod+c.LeavesPerPod]
		aggs := f.Switches[p*perPod+c.LeavesPerPod : (p+1)*perPod]
		for i := range aggs {
			aggs[i] = w.newSwitch(w.name("agg", p, i), c.LeavesPerPod+c.Cores)
		}
		for l := range leaves {
			leaf := w.newSwitch(w.name("leaf", p, l), c.HostsPerLeaf+c.AggsPerPod)
			leaves[l] = leaf
			for h := 0; h < c.HostsPerLeaf; h++ {
				w.host(leaf, w.name("h", p, l, h), c.HostRate)
			}
			for _, agg := range aggs {
				w.link(leaf, agg, c.FabricRate)
			}
		}
		for _, agg := range aggs {
			for _, core := range cores {
				w.link(agg, core, c.CoreRate)
			}
		}
	}
	InstallShortestPathRoutes(n)
	return f
}
