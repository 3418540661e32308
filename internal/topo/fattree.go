package topo

import (
	"fmt"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// FatTreeConfig parameterizes a classic k-ary fat-tree (Al-Fares et
// al.): K pods, each with K/2 edge and K/2 aggregation switches, K/2
// hosts per edge switch, and (K/2)² core switches — K³/4 hosts in
// total (K=8 → 128, K=16 → 1024, K=24 → 3456). Link rates may differ
// per tier, so an oversubscribed 10/25/100G fabric is one config away;
// with uniform rates the tree has full bisection bandwidth.
type FatTreeConfig struct {
	// K is the arity: pod count and switch port count. Must be even
	// and at least 4.
	K int

	// HostRate is the host <-> edge link rate (default 10 Gbps).
	HostRate sim.Rate
	// AggRate is the edge <-> aggregation link rate; 0 means HostRate.
	AggRate sim.Rate
	// CoreRate is the aggregation <-> core link rate; 0 means AggRate.
	CoreRate sim.Rate

	// LinkDelay is the one-way propagation delay of every link, in ns
	// units of sim.Time. A cross-pod path crosses 6 links each way, so
	// RTT = 12×LinkDelay (+serialization). Default ≈ 8.33 µs for a
	// ~100 µs cross-pod RTT.
	LinkDelay sim.Time

	// Jitter is the per-delivery random delay bound (see
	// netsim.Network.SetJitter); JitterSeed seeds its stream.
	Jitter     sim.Time
	JitterSeed int64
}

// DefaultFatTree is the smallest legal fat-tree: K=4 (16 hosts),
// uniform 10 Gbps links, ~100 µs cross-pod RTT, and half an MSS of
// delivery jitter (same rationale as Small.Jitter).
func DefaultFatTree() FatTreeConfig {
	c := FatTreeConfig{
		K:         4,
		HostRate:  10 * sim.Gbps,
		LinkDelay: 8333 * sim.Nanosecond, // 12 hops ≈ 100µs RTT
	}
	c.Jitter = c.HostRate.TxTime(netsim.MSS) / 2
	return c
}

// withDefaults fills zero rate tiers.
func (c FatTreeConfig) withDefaults() FatTreeConfig {
	if c.AggRate == 0 {
		c.AggRate = c.HostRate
	}
	if c.CoreRate == 0 {
		c.CoreRate = c.AggRate
	}
	return c
}

// Hosts implements Builder: K³/4.
func (c FatTreeConfig) Hosts() int { return c.K * c.K * c.K / 4 }

// AccessRate implements Builder: the host <-> edge link rate.
func (c FatTreeConfig) AccessRate() sim.Rate { return c.HostRate }

// Oversubscription returns the edge-tier oversubscription ratio: host
// bandwidth into an edge switch over its uplink bandwidth,
// (K/2·HostRate)/(K/2·AggRate). 1.0 means non-blocking at the edge.
func (c FatTreeConfig) Oversubscription() float64 {
	c = c.withDefaults()
	return float64(c.HostRate) / float64(c.AggRate)
}

// BisectionBandwidth returns the aggregate rate crossing a bisection of
// the pods: K³/8 core links × CoreRate. With uniform rates this equals
// half the hosts times their access rate — full bisection.
func (c FatTreeConfig) BisectionBandwidth() sim.Rate {
	c = c.withDefaults()
	return sim.Rate(int64(c.K*c.K*c.K/8) * int64(c.CoreRate))
}

// Canonical implements Builder.
func (c FatTreeConfig) Canonical() string {
	c = c.withDefaults()
	return canon("fattree",
		"k", c.K,
		"hostrate", int64(c.HostRate), "aggrate", int64(c.AggRate), "corerate", int64(c.CoreRate),
		"linkdelay", int64(c.LinkDelay), "jitter", int64(c.Jitter), "jitterseed", c.JitterSeed,
	)
}

// Build implements Builder: the k-ary fat-tree on a fresh network with
// ov laid over it and shortest-path ECMP routes installed. Switch names
// are "edgeP.I", "aggP.I" (pod P, index I) and "coreI"; host names are
// "hP.E.I" (pod, edge, index) — the names the fault-spec grammar
// resolves against. It panics if K is odd or below 4.
func (c FatTreeConfig) Build(ov Overlay) *Fabric {
	if c.K < 4 || c.K%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree arity K=%d must be even and >= 4", c.K))
	}
	c = c.withDefaults()
	k, half := c.K, c.K/2
	w := newWiring(ov, c.LinkDelay, c.Jitter, c.JitterSeed, c.Hosts(), half*half+k*k, 2*k*half*half)
	n := w.net
	f := w.f
	f.AccessRate, f.BaseRTT = c.HostRate, 12*c.LinkDelay

	// Every switch has k ports. f.Switches lists each pod's edges, then
	// its aggregations, and the cores last; the cores are made first.
	f.Switches = f.Switches[:cap(f.Switches)]
	cores := f.Switches[k*k:]
	for i := range cores {
		cores[i] = w.newSwitch(w.name("core", i), k)
	}
	for p := 0; p < k; p++ {
		edges := f.Switches[p*k : p*k+half]
		aggs := f.Switches[p*k+half : (p+1)*k]
		for i := 0; i < half; i++ {
			edges[i] = w.newSwitch(w.name("edge", p, i), k)
			aggs[i] = w.newSwitch(w.name("agg", p, i), k)
		}
		for e, edge := range edges {
			for h := 0; h < half; h++ {
				w.host(edge, w.name("h", p, e, h), c.HostRate)
			}
			for _, agg := range aggs {
				w.link(edge, agg, c.AggRate)
			}
		}
		// Aggregation switch i of every pod uplinks to the i-th stripe
		// of core switches: cores [i·K/2, (i+1)·K/2).
		for i, agg := range aggs {
			for _, core := range cores[i*half : (i+1)*half] {
				w.link(agg, core, c.CoreRate)
			}
		}
	}
	InstallShortestPathRoutes(n)
	return f
}
