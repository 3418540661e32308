package topo

import (
	"strings"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

func switchByName(t *testing.T, f *Fabric, name string) *netsim.Switch {
	t.Helper()
	for _, sw := range f.Switches {
		if sw.Name() == name {
			return sw
		}
	}
	t.Fatalf("no switch named %q", name)
	return nil
}

func TestFatTreeShape(t *testing.T) {
	for _, k := range []int{4, 8} {
		cfg := DefaultFatTree()
		cfg.K = k
		f := cfg.Build(Overlay{})
		CheckConnected(f.Net)

		half := k / 2
		wantHosts := k * k * k / 4
		if len(f.Hosts) != wantHosts || cfg.Hosts() != wantHosts {
			t.Errorf("k=%d: hosts = %d (cfg %d), want %d", k, len(f.Hosts), cfg.Hosts(), wantHosts)
		}
		if len(f.HostDownlinks) != wantHosts {
			t.Errorf("k=%d: downlinks = %d, want %d", k, len(f.HostDownlinks), wantHosts)
		}
		if want := 5 * k * k / 4; len(f.Switches) != want {
			t.Errorf("k=%d: switches = %d, want %d", k, len(f.Switches), want)
		}
		// The defining fat-tree property: every switch — edge, agg,
		// core — is the same k-port part.
		for _, sw := range f.Switches {
			if got := len(sw.Ports()); got != k {
				t.Errorf("k=%d: switch %s has %d ports, want %d", k, sw.Name(), got, k)
			}
		}

		// ECMP route widths. Hosts are pod-major, k²/4 per pod, so
		// f.Hosts[k²/4] is h1.0.0, the first host of pod 1.
		podHosts := k * k / 4
		local := f.Hosts[0]           // h0.0.0, under edge0.0
		samePod := f.Hosts[half]      // h0.1.0, under edge0.1
		crossPod := f.Hosts[podHosts] // h1.0.0
		edge := switchByName(t, f, "edge0.0")
		agg := switchByName(t, f, "agg0.0")
		core := switchByName(t, f, "core0")
		if got := len(edge.Routes(local.ID())); got != 1 {
			t.Errorf("k=%d: edge→attached host ECMP width = %d, want 1", k, got)
		}
		if got := len(edge.Routes(samePod.ID())); got != half {
			t.Errorf("k=%d: edge→same-pod host ECMP width = %d, want %d", k, got, half)
		}
		if got := len(edge.Routes(crossPod.ID())); got != half {
			t.Errorf("k=%d: edge→cross-pod host ECMP width = %d, want %d", k, got, half)
		}
		if got := len(agg.Routes(crossPod.ID())); got != half {
			t.Errorf("k=%d: agg→cross-pod host ECMP width = %d, want %d", k, got, half)
		}
		if got := len(core.Routes(crossPod.ID())); got != 1 {
			t.Errorf("k=%d: core→host ECMP width = %d, want 1", k, got)
		}

		// Route symmetry: the first-hop fan-out toward a peer is the
		// same in both directions of any cross-pod pair.
		revEdge := switchByName(t, f, "edge1.0")
		fwd := len(edge.Routes(crossPod.ID()))
		rev := len(revEdge.Routes(local.ID()))
		if fwd != rev {
			t.Errorf("k=%d: asymmetric ECMP widths: %d forward vs %d reverse", k, fwd, rev)
		}

		// Uniform rates ⇒ full bisection: K³/8 core links carry half
		// the hosts' access bandwidth.
		wantBisect := sim.Rate(int64(k*k*k/8) * int64(cfg.HostRate))
		if got := cfg.BisectionBandwidth(); got != wantBisect {
			t.Errorf("k=%d: bisection = %d, want %d", k, got, wantBisect)
		}
		if got := sim.Rate(int64(wantHosts/2) * int64(cfg.HostRate)); got != wantBisect {
			t.Errorf("k=%d: bisection %d != hosts/2 × rate %d", k, wantBisect, got)
		}
		if got := cfg.Oversubscription(); got != 1.0 {
			t.Errorf("k=%d: uniform-rate oversubscription = %v, want 1.0", k, got)
		}
	}
}

func TestFatTreeOversubscribed(t *testing.T) {
	cfg := DefaultFatTree()
	cfg.AggRate = cfg.HostRate / 2
	if got := cfg.Oversubscription(); got != 2.0 {
		t.Errorf("oversubscription = %v, want 2.0", got)
	}
	// CoreRate defaults to AggRate, so the bisection shrinks with it.
	want := sim.Rate(int64(cfg.K*cfg.K*cfg.K/8) * int64(cfg.AggRate))
	if got := cfg.BisectionBandwidth(); got != want {
		t.Errorf("bisection = %d, want %d", got, want)
	}
}

func TestFatTreeCanonicalDistinguishes(t *testing.T) {
	base := DefaultFatTree()
	if !strings.HasPrefix(base.Canonical(), "fattree") {
		t.Errorf("canonical %q lacks family prefix", base.Canonical())
	}
	bigger := base
	bigger.K = 8
	slower := base
	slower.AggRate = 5 * sim.Gbps
	// The small topologies share the key space: no shape, pair count or
	// link setting may collide with another, or with a fabric.
	fan := Fan(4)
	fan.LinkDelay /= 2
	seeded := Chain()
	seeded.JitterSeed = 1
	seen := map[string]string{}
	for name, c := range map[string]Builder{"base": base, "k8": bigger, "agg5": slower,
		"chain": Chain(), "chain seed 1": seeded, "fan 4": Fan(4), "fan 1": Fan(1), "fan half delay": fan,
		"testbed dynamic": TestbedDynamic(), "testbed multi-bottleneck": TestbedMultiBottleneck()} {
		key := c.Canonical()
		if prev, dup := seen[key]; dup {
			t.Errorf("configs %s and %s share canonical %q", prev, name, key)
		}
		seen[key] = name
	}
}

func TestFatTreeInvalidArityPanics(t *testing.T) {
	for _, k := range []int{2, 3, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("K=%d did not panic", k)
				}
			}()
			cfg := DefaultFatTree()
			cfg.K = k
			cfg.Build(Overlay{})
		}()
	}
}

func TestClosShape(t *testing.T) {
	cfg := DefaultClos()
	f := cfg.Build(Overlay{})
	CheckConnected(f.Net)

	wantHosts := cfg.Pods * cfg.LeavesPerPod * cfg.HostsPerLeaf
	if len(f.Hosts) != wantHosts || cfg.Hosts() != wantHosts {
		t.Errorf("hosts = %d (cfg %d), want %d", len(f.Hosts), cfg.Hosts(), wantHosts)
	}
	if want := cfg.Pods*(cfg.LeavesPerPod+cfg.AggsPerPod) + cfg.Cores; len(f.Switches) != want {
		t.Errorf("switches = %d, want %d", len(f.Switches), want)
	}
	// Per-tier port counts follow the full-mesh wiring of each tier.
	for _, sw := range f.Switches {
		var want int
		switch {
		case strings.HasPrefix(sw.Name(), "leaf"):
			want = cfg.HostsPerLeaf + cfg.AggsPerPod
		case strings.HasPrefix(sw.Name(), "agg"):
			want = cfg.LeavesPerPod + cfg.Cores
		case strings.HasPrefix(sw.Name(), "core"):
			want = cfg.Pods * cfg.AggsPerPod
		default:
			t.Fatalf("unexpected switch name %q", sw.Name())
		}
		if got := len(sw.Ports()); got != want {
			t.Errorf("switch %s has %d ports, want %d", sw.Name(), got, want)
		}
	}

	// ECMP widths: leaf fans over its pod's aggs, aggs over all cores,
	// cores back over the destination pod's aggs.
	podHosts := cfg.LeavesPerPod * cfg.HostsPerLeaf
	local := f.Hosts[0]                      // h0.0.0
	sameLeafPod := f.Hosts[cfg.HostsPerLeaf] // h0.1.0
	crossPod := f.Hosts[podHosts]            // h1.0.0
	leaf := switchByName(t, f, "leaf0.0")
	agg := switchByName(t, f, "agg0.0")
	core := switchByName(t, f, "core0")
	if got := len(leaf.Routes(local.ID())); got != 1 {
		t.Errorf("leaf→attached host ECMP width = %d, want 1", got)
	}
	if got := len(leaf.Routes(sameLeafPod.ID())); got != cfg.AggsPerPod {
		t.Errorf("leaf→same-pod host ECMP width = %d, want %d", got, cfg.AggsPerPod)
	}
	if got := len(leaf.Routes(crossPod.ID())); got != cfg.AggsPerPod {
		t.Errorf("leaf→cross-pod host ECMP width = %d, want %d", got, cfg.AggsPerPod)
	}
	if got := len(agg.Routes(crossPod.ID())); got != cfg.Cores {
		t.Errorf("agg→cross-pod host ECMP width = %d, want %d", got, cfg.Cores)
	}
	if got := len(core.Routes(crossPod.ID())); got != cfg.AggsPerPod {
		t.Errorf("core→host ECMP width = %d, want %d", got, cfg.AggsPerPod)
	}

	// The default is the documented 2:1 leaf oversubscription under a
	// cores × aggs × pods/2 bisection.
	if got := cfg.Oversubscription(); got != 2.0 {
		t.Errorf("default oversubscription = %v, want 2.0", got)
	}
	want := sim.Rate(int64(cfg.Cores*cfg.AggsPerPod*cfg.Pods/2) * int64(cfg.CoreRate))
	if got := cfg.BisectionBandwidth(); got != want {
		t.Errorf("bisection = %d, want %d", got, want)
	}
}

func TestClosInvalidDimensionsPanics(t *testing.T) {
	cfg := DefaultClos()
	cfg.AggsPerPod = 0
	defer func() {
		if recover() == nil {
			t.Error("zero AggsPerPod did not panic")
		}
	}()
	cfg.Build(Overlay{})
}
