package amrt

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
)

// TopologyKinds returns the supported fabric families in documentation
// order: "leafspine", "fattree", "clos".
func TopologyKinds() []string {
	return []string{"leafspine", "fattree", "clos"}
}

// builder resolves the Topology into a concrete, fully-defaulted
// fabric builder, or an error wrapping ErrBadTopology. Zero fields keep
// the kind's defaults; every other value the kind reads must be valid:
// dimensions positive, RTT not negative, each rate finite and
// convertible to a positive sim.Rate (NaN or a negative rate would
// otherwise fall back to the default silently, and an overflowing one
// crash the engine), and each rate times the fabric's RTT within
// int64 in bit/s × ns. That caps the bandwidth-delay product the
// stacks size their windows from (sim.Rate.BytesIn of the RTT) at about
// 1.15 GB, far inside the int64 bytes past which BytesIn panics.
func (t Topology) builder() (topo.Builder, error) {
	kind := t.Kind
	if kind == "" {
		kind = "leafspine"
	}
	if t.RTT < 0 {
		return nil, fmt.Errorf("%w: RTT %v must not be negative", ErrBadTopology, t.RTT)
	}
	var bad error
	rate := func(dst *sim.Rate, field string, gbps float64) {
		r := gbps * float64(sim.Gbps)
		switch {
		case gbps == 0 || bad != nil:
		case !(r >= 1 && r < math.MaxInt64): // NaN and ±Inf fail too
			bad = fmt.Errorf("%w: %s %v Gbit/s is not a finite positive rate", ErrBadTopology, field, gbps)
		default:
			*dst = sim.Rate(r)
		}
	}
	var b topo.Builder
	var rtt sim.Time      // the fabric's BaseRTT
	var rates [3]sim.Rate // the resolved rates of its tiers
	switch kind {
	case "leafspine":
		cfg := topo.DefaultLeafSpine()
		if t.Leaves > 0 {
			cfg.Leaves = t.Leaves
		}
		if t.Spines > 0 {
			cfg.Spines = t.Spines
		}
		if t.HostsPerLeaf > 0 {
			cfg.HostsPerLeaf = t.HostsPerLeaf
		}
		if t.Leaves < 0 || t.Spines < 0 || t.HostsPerLeaf < 0 {
			return nil, fmt.Errorf("%w: leaf-spine dimensions must be positive", ErrBadTopology)
		}
		rate(&cfg.HostRate, "LinkGbps", t.LinkGbps)
		if t.LinkGbps != 0 {
			cfg.FabricRate = cfg.HostRate
		}
		rate(&cfg.FabricRate, "FabricGbps", t.FabricGbps)
		if t.RTT > 0 {
			cfg.LinkDelay = sim.FromDuration(t.RTT) / 8
		}
		cfg.Jitter = cfg.HostRate.TxTime(netsim.MSS) / 2
		b, rtt, rates = cfg, 8*cfg.LinkDelay, [3]sim.Rate{cfg.HostRate, cfg.FabricRate}
	case "fattree":
		cfg := topo.DefaultFatTree()
		if t.K != 0 {
			cfg.K = t.K
		}
		if cfg.K < 4 || cfg.K%2 != 0 {
			return nil, fmt.Errorf("%w: fat-tree arity K=%d must be even and >= 4", ErrBadTopology, cfg.K)
		}
		rate(&cfg.HostRate, "LinkGbps", t.LinkGbps)
		rate(&cfg.AggRate, "FabricGbps", t.FabricGbps)
		rate(&cfg.CoreRate, "CoreGbps", t.CoreGbps)
		if t.RTT > 0 {
			cfg.LinkDelay = sim.FromDuration(t.RTT) / 12
		}
		cfg.Jitter = cfg.HostRate.TxTime(netsim.MSS) / 2
		b, rtt, rates = cfg, 12*cfg.LinkDelay, [3]sim.Rate{cfg.HostRate, cfg.AggRate, cfg.CoreRate}
	case "clos":
		cfg := topo.DefaultClos()
		if t.Pods > 0 {
			cfg.Pods = t.Pods
		}
		if t.Leaves > 0 {
			cfg.LeavesPerPod = t.Leaves
		}
		if t.Aggs > 0 {
			cfg.AggsPerPod = t.Aggs
		}
		if t.Cores > 0 {
			cfg.Cores = t.Cores
		}
		if t.HostsPerLeaf > 0 {
			cfg.HostsPerLeaf = t.HostsPerLeaf
		}
		if t.Pods < 0 || t.Leaves < 0 || t.Aggs < 0 || t.Cores < 0 || t.HostsPerLeaf < 0 {
			return nil, fmt.Errorf("%w: clos dimensions must be positive", ErrBadTopology)
		}
		rate(&cfg.HostRate, "LinkGbps", t.LinkGbps)
		rate(&cfg.FabricRate, "FabricGbps", t.FabricGbps)
		rate(&cfg.CoreRate, "CoreGbps", t.CoreGbps)
		if t.RTT > 0 {
			cfg.LinkDelay = sim.FromDuration(t.RTT) / 12
		}
		cfg.Jitter = cfg.HostRate.TxTime(netsim.MSS) / 2
		b, rtt, rates = cfg, 12*cfg.LinkDelay, [3]sim.Rate{cfg.HostRate, cfg.FabricRate, cfg.CoreRate}
	default:
		return nil, fmt.Errorf("%w: unknown kind %q (have %v)", ErrBadTopology, t.Kind, TopologyKinds())
	}
	if bad != nil {
		return nil, bad
	}
	for _, r := range rates {
		if r > 0 && int64(rtt) > math.MaxInt64/int64(r) {
			return nil, fmt.Errorf("%w: %v × RTT %v overflows the bandwidth-delay product", ErrBadTopology, r, rtt)
		}
	}
	return b, nil
}

// ParseTopology parses a compact topology spec of the form
//
//	kind[:key=value[,key=value...]]
//
// where kind is one of TopologyKinds() and the keys are
//
//	leaves, spines, hosts  — leaf-spine / clos dimensions
//	k                      — fat-tree arity
//	pods, aggs, cores      — clos dimensions
//	gbps, fabric, core     — per-tier link rates in Gbit/s
//	rtt                    — propagation RTT (Go duration, e.g. 100us)
//
// Examples: "fattree:k=8", "leafspine:leaves=4,spines=4,hosts=10",
// "clos:pods=4,leaves=4,aggs=2,cores=4,hosts=16,gbps=25,fabric=100".
// The sweep CLI's -topos axis and docs/TOPOLOGIES.md use this grammar.
// Errors wrap ErrBadTopology.
func ParseTopology(spec string) (Topology, error) {
	var t Topology
	kind, rest, _ := strings.Cut(spec, ":")
	kind = strings.TrimSpace(kind)
	if kind == "" {
		return t, fmt.Errorf("%w: empty topology spec", ErrBadTopology)
	}
	t.Kind = kind
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return t, fmt.Errorf("%w: %q is not key=value in %q", ErrBadTopology, kv, spec)
			}
			if err := t.setKey(strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
				return t, fmt.Errorf("%w: %v in %q", ErrBadTopology, err, spec)
			}
		}
	}
	// Resolve once so an unknown kind or bad dimensions fail at parse
	// time, not at run time.
	if _, err := t.builder(); err != nil {
		return t, err
	}
	return t, nil
}

// setKey applies one key=value pair of the ParseTopology grammar.
func (t *Topology) setKey(key, val string) error {
	intKey := func(dst *int) error {
		v, err := strconv.Atoi(val)
		if err != nil || v <= 0 {
			return fmt.Errorf("%s=%q must be a positive integer", key, val)
		}
		*dst = v
		return nil
	}
	floatKey := func(dst *float64) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("%s=%q must be a positive number", key, val)
		}
		*dst = v
		return nil
	}
	switch key {
	case "leaves":
		return intKey(&t.Leaves)
	case "spines":
		return intKey(&t.Spines)
	case "hosts":
		return intKey(&t.HostsPerLeaf)
	case "k":
		return intKey(&t.K)
	case "pods":
		return intKey(&t.Pods)
	case "aggs":
		return intKey(&t.Aggs)
	case "cores":
		return intKey(&t.Cores)
	case "gbps":
		return floatKey(&t.LinkGbps)
	case "fabric":
		return floatKey(&t.FabricGbps)
	case "core":
		return floatKey(&t.CoreGbps)
	case "rtt":
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("rtt=%q must be a positive duration", val)
		}
		t.RTT = d
		return nil
	}
	return fmt.Errorf("unknown key %q", key)
}
