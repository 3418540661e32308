package topo

import "amrt/internal/sim"

// LeafSpineConfig parameterizes a two-tier Clos fabric. The paper's
// large-scale simulation uses 10 leaves, 8 spines, 40 hosts per leaf,
// 10 Gbps links, and a ~100 µs RTT; the defaults here are that shape at
// a reduced size so the full figure set regenerates quickly.
type LeafSpineConfig struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int

	HostRate   sim.Rate // host <-> leaf links
	FabricRate sim.Rate // leaf <-> spine links

	// LinkDelay is the one-way propagation delay of every link. A
	// 4-hop cross-rack path has RTT = 8×LinkDelay (+serialization).
	LinkDelay sim.Time

	// Jitter is the per-delivery random delay bound (see
	// netsim.Network.SetJitter); JitterSeed seeds its stream.
	Jitter     sim.Time
	JitterSeed int64
}

// DefaultLeafSpine is the scaled-down default evaluation fabric.
func DefaultLeafSpine() LeafSpineConfig {
	return LeafSpineConfig{
		Leaves:       4,
		Spines:       4,
		HostsPerLeaf: 10,
		HostRate:     10 * sim.Gbps,
		FabricRate:   10 * sim.Gbps,
		LinkDelay:    12500 * sim.Nanosecond, // 8 hops ≈ 100µs RTT
		Jitter:       600 * sim.Nanosecond,   // half an MSS at 10G; see Small.Jitter
	}
}

// PaperLeafSpine is the full-scale topology from §8.1.
func PaperLeafSpine() LeafSpineConfig {
	c := DefaultLeafSpine()
	c.Leaves, c.Spines, c.HostsPerLeaf = 10, 8, 40
	return c
}

// Hosts returns the total host count of the configured fabric.
func (c LeafSpineConfig) Hosts() int { return c.Leaves * c.HostsPerLeaf }

// AccessRate implements Builder: the host <-> leaf link rate.
func (c LeafSpineConfig) AccessRate() sim.Rate { return c.HostRate }

// Canonical implements Builder.
func (c LeafSpineConfig) Canonical() string {
	return canon("leafspine",
		"leaves", c.Leaves, "spines", c.Spines, "hostsperleaf", c.HostsPerLeaf,
		"hostrate", int64(c.HostRate), "fabricrate", int64(c.FabricRate),
		"linkdelay", int64(c.LinkDelay), "jitter", int64(c.Jitter), "jitterseed", c.JitterSeed,
	)
}

// Build implements Builder: the two-tier fabric on a fresh network with
// ov laid over it and routes installed. Switch names are "leafL" and
// "spineS"; host names are "hL.I" (leaf, index). It panics on
// non-positive dimensions.
func (c LeafSpineConfig) Build(ov Overlay) *Fabric {
	if c.Leaves <= 0 || c.Spines <= 0 || c.HostsPerLeaf <= 0 {
		panic("topo: leaf-spine dimensions must be positive")
	}
	w := newWiring(ov, c.LinkDelay, c.Jitter, c.JitterSeed, c.Hosts(), c.Leaves+c.Spines, c.Leaves*c.Spines)
	f := w.f
	f.AccessRate, f.BaseRTT = c.HostRate, 8*c.LinkDelay
	for l := 0; l < c.Leaves; l++ {
		f.Switches = append(f.Switches, w.newSwitch(w.name("leaf", l), c.HostsPerLeaf+c.Spines))
	}
	for s := 0; s < c.Spines; s++ {
		f.Switches = append(f.Switches, w.newSwitch(w.name("spine", s), c.Leaves))
	}
	leaves, spines := f.Switches[:c.Leaves], f.Switches[c.Leaves:]
	for l, leaf := range leaves {
		for h := 0; h < c.HostsPerLeaf; h++ {
			w.host(leaf, w.name("h", l, h), c.HostRate)
		}
		for _, spine := range spines {
			w.link(leaf, spine, c.FabricRate)
		}
	}
	InstallShortestPathRoutes(w.net)
	return f
}
