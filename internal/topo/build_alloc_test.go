package topo

import (
	"fmt"
	"testing"

	"amrt/internal/core"
	"amrt/internal/netsim"
	"amrt/internal/sim"
)

// buildAllocsMax bounds the allocations of one Build with AMRT's overlay
// (two queue kinds and a marker), whatever the fabric's size: the
// network, engine and shard, one array per kind of object, the route
// computation's four tables, and a small topology's role lists.
const buildAllocsMax = 30

// TestBuildAllocs holds every builder family to a set-up cost that does
// not grow with the fabric: the sizes within a family build with the same
// number of allocations, and every build with at most buildAllocsMax.
// Each built port is named after its ends and seeds its jitter stream
// from that name, as when the name was stored.
func TestBuildAllocs(t *testing.T) {
	cfg := core.DefaultConfig()
	ov := Overlay{SwitchQueue: cfg.SwitchQueue, HostQueue: core.HostQueue, Marker: cfg.NewMarker}
	ls2 := DefaultLeafSpine()
	ls2.Leaves, ls2.Spines, ls2.HostsPerLeaf = 2, 1, 2
	ft8 := DefaultFatTree()
	ft8.K = 8
	seeded := func(b Builder) Builder {
		switch c := b.(type) {
		case Small:
			c.JitterSeed = 7
			return c
		case LeafSpineConfig:
			c.JitterSeed = 7
			return c
		case FatTreeConfig:
			c.JitterSeed = 7
			return c
		case ClosConfig:
			c.JitterSeed = 7
			return c
		}
		panic(fmt.Sprintf("unknown builder %T", b))
	}
	families := []struct {
		name  string
		sizes []Builder
	}{
		{"fan", []Builder{Fan(2), Fan(16)}},
		{"chain", []Builder{Chain()}},
		{"testbed dynamic", []Builder{TestbedDynamic()}},
		{"testbed multi-bottleneck", []Builder{TestbedMultiBottleneck()}},
		{"leafspine", []Builder{ls2, DefaultLeafSpine()}},
		{"fattree", []Builder{DefaultFatTree(), ft8}},
		{"clos", []Builder{DefaultClos()}},
	}
	for _, fam := range families {
		var first float64
		for i, b := range fam.sizes {
			b = seeded(b)
			f := b.Build(ov)
			ports := checkPortNames(t, f.Net, 7)
			got := testing.AllocsPerRun(10, func() { b.Build(ov) })
			t.Logf("%s, %d ports: %.0f allocations", fam.name, ports, got)
			if got > buildAllocsMax {
				t.Errorf("%s, %d ports: %.0f allocations per build, want <= %d", fam.name, ports, got, buildAllocsMax)
			}
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s: %.0f allocations at %d ports, %.0f at the smallest size", fam.name, got, ports, first)
			}
		}
	}
}

// checkPortNames checks that every port of n is named
// from.Name()+"->"+to.Name() and seeds its jitter stream with
// sim.SubSeed(seed, "jitter."+name), and returns the port count.
func checkPortNames(t *testing.T, n *netsim.Network, seed int64) int {
	t.Helper()
	var ports []*netsim.Port
	for _, h := range n.Hosts() {
		ports = append(ports, h.NIC())
	}
	for _, s := range n.Switches() {
		ports = append(ports, s.Ports()...)
	}
	for _, p := range ports {
		name := p.Owner().Name() + "->" + p.Link().To.Name()
		if p.Name() != name {
			t.Errorf("port %q, want %q", p.Name(), name)
		}
		if got, want := p.JitterSeed(), sim.SubSeed(seed, "jitter."+name); got != want {
			t.Errorf("port %s: jitter seed %d, want %d", name, got, want)
		}
	}
	return len(ports)
}
