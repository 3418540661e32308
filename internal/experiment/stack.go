// Package experiment reproduces the paper's evaluation: one entry point
// per figure, each building the right topology, protocol stack, and
// traffic, running the deterministic simulation (sweep points fan out
// over a worker pool), and returning printable tables and series.
package experiment

import (
	"fmt"

	"amrt/internal/core"
	"amrt/internal/dctcp"
	"amrt/internal/homa"
	"amrt/internal/ndp"
	"amrt/internal/netsim"
	"amrt/internal/phost"
	"amrt/internal/sim"
	"amrt/internal/sird"
	"amrt/internal/transport"
)

// Instance is the protocol surface the two harnesses drive; every
// registered stack satisfies it, almost entirely through the embedded
// transport.Kernel's flow lifecycle. A harness creates one instance per
// engine shard: a flow's sender side lives on its source's instance
// (AddPending, Release), its receiver side on its destination's
// (Adopt), and the two coincide on single-shard runs.
type Instance interface {
	Name() string
	// AddPending registers a flow's sender side without scheduling a
	// start; Release (on the same instance) starts it — during setup, or
	// for a dependent flow when its parent completes.
	AddPending(id netsim.FlowID, src, dst *netsim.Host, size int64, unresponsive bool) *transport.Flow
	Release(f *transport.Flow, start sim.Time)
	// Adopt registers a flow created by another instance on this
	// instance's receiver side (no-op receiver install on single-shard
	// runs, where the same instance already holds the flow).
	Adopt(f *transport.Flow)
	// OrderedFlows returns the flows in creation order (embedded
	// transport.Kernel provides it); the runner's watchdog and outcome
	// report iterate it for determinism.
	OrderedFlows() []*transport.Flow
	// OnHostCrash fires at the instant a host loses power: all protocol
	// state on it is gone. The runner wires it into the fault plan's
	// crash hook, once per shard instance. It is part of the interface,
	// not an optional extension, so a stack whose method set drifts
	// fails to compile instead of silently ignoring crashes. There is no
	// restart counterpart: surviving flows are rebuilt by the sender's
	// re-announce chain.
	OnHostCrash(h *netsim.Host)
}

// Stack bundles everything needed to put one protocol on a topology:
// its queue disciplines, its optional egress marker, and its
// constructor.
type Stack struct {
	Name        string
	SwitchQueue netsim.QueueFactory
	HostQueue   netsim.QueueFactory
	Marker      func() netsim.DequeueMarker
	New         func(net *netsim.Network, base transport.Config) Instance
}

// StackOptions tune protocol-specific knobs. One struct is shared by
// every stack: each constructor reads only its own fields, and the
// public validation layer uses the registry's OptionsSet/Narrow hooks
// to reject or strip fields aimed at a different protocol.
type StackOptions struct {
	// HomaDegree is the overcommitment degree (default 2).
	HomaDegree int
	// SIRDPoolBytes bounds each SIRD receiver's outstanding scheduled
	// credit in bytes (default 0 = 1.5× the downlink BDP).
	SIRDPoolBytes int64
	// SIRDStalenessRTTs is how long SIRD trusts a sender's demand
	// advertisement, in RTTs (default 8).
	SIRDStalenessRTTs int
	// AMRT overrides for the ablation study; zero values keep the
	// paper's defaults.
	AMRT core.Config
}

// The five comparison protocols (presentation order 0–4) plus the
// related-work contrast register themselves here; everything else —
// ProtocolNames, AllStacks, amrt.Validate, the CLIs, the docs checker —
// derives from the registry.
func init() {
	Register(Descriptor{
		Name: "pHost", Order: 0,
		Build: func(StackOptions) Stack {
			cfg := phost.DefaultConfig()
			return Stack{
				Name:        "pHost",
				SwitchQueue: cfg.SwitchQueue,
				HostQueue:   cfg.HostQueue,
				New: func(net *netsim.Network, base transport.Config) Instance {
					c := phost.DefaultConfig()
					c.Config = base
					return phost.New(net, c)
				},
			}
		},
	})
	Register(Descriptor{
		Name: "Homa", Order: 1,
		Build: func(opts StackOptions) Stack {
			cfg := homa.DefaultConfig()
			if opts.HomaDegree > 0 {
				cfg.Degree = opts.HomaDegree
			}
			deg := cfg.Degree
			return Stack{
				Name:        "Homa",
				SwitchQueue: cfg.SwitchQueue,
				HostQueue:   cfg.HostQueue,
				New: func(net *netsim.Network, base transport.Config) Instance {
					c := homa.DefaultConfig()
					c.Degree = deg
					c.Config = base
					return homa.New(net, c)
				},
			}
		},
		OptionsSet: func(opts StackOptions) bool { return opts.HomaDegree != 0 },
		Narrow:     func(opts StackOptions) StackOptions { return StackOptions{HomaDegree: opts.HomaDegree} },
		CheckOptions: func(opts StackOptions) error {
			if opts.HomaDegree < 0 {
				return fmt.Errorf("HomaDegree %d must be non-negative", opts.HomaDegree)
			}
			return nil
		},
	})
	Register(Descriptor{
		Name: "NDP", Order: 2,
		Build: func(StackOptions) Stack {
			cfg := ndp.DefaultConfig()
			return Stack{
				Name:        "NDP",
				SwitchQueue: cfg.SwitchQueue,
				HostQueue:   cfg.HostQueue,
				New: func(net *netsim.Network, base transport.Config) Instance {
					c := ndp.DefaultConfig()
					c.Config = base
					return ndp.New(net, c)
				},
			}
		},
	})
	Register(Descriptor{
		Name: "AMRT", Order: 3,
		Build: func(opts StackOptions) Stack {
			cfg := opts.AMRT.WithDefaults()
			return Stack{
				Name:        "AMRT",
				SwitchQueue: cfg.SwitchQueue,
				HostQueue:   cfg.HostQueue,
				Marker:      cfg.NewMarker,
				New: func(net *netsim.Network, base transport.Config) Instance {
					c := cfg
					c.Config = base
					return core.New(net, c)
				},
			}
		},
		// core.Config is internal (ablation only) and not comparable, so
		// AMRT exposes no public options to probe or narrow.
		Narrow: func(opts StackOptions) StackOptions { return StackOptions{AMRT: opts.AMRT} },
	})
	Register(Descriptor{
		Name: "SIRD", Order: 4,
		Build: func(opts StackOptions) Stack {
			cfg := sird.DefaultConfig()
			cfg.PoolBytes = opts.SIRDPoolBytes
			if opts.SIRDStalenessRTTs > 0 {
				cfg.StalenessRTTs = opts.SIRDStalenessRTTs
			}
			pool, stale := cfg.PoolBytes, cfg.StalenessRTTs
			return Stack{
				Name:        "SIRD",
				SwitchQueue: cfg.SwitchQueue,
				HostQueue:   cfg.HostQueue,
				New: func(net *netsim.Network, base transport.Config) Instance {
					c := sird.DefaultConfig()
					c.PoolBytes, c.StalenessRTTs = pool, stale
					c.Config = base
					return sird.New(net, c)
				},
			}
		},
		OptionsSet: func(opts StackOptions) bool {
			return opts.SIRDPoolBytes != 0 || opts.SIRDStalenessRTTs != 0
		},
		Narrow: func(opts StackOptions) StackOptions {
			return StackOptions{SIRDPoolBytes: opts.SIRDPoolBytes, SIRDStalenessRTTs: opts.SIRDStalenessRTTs}
		},
		CheckOptions: func(opts StackOptions) error {
			if opts.SIRDPoolBytes < 0 {
				return fmt.Errorf("SIRDPoolBytes %d must be non-negative", opts.SIRDPoolBytes)
			}
			if opts.SIRDStalenessRTTs < 0 {
				return fmt.Errorf("SIRDStalenessRTTs %d must be non-negative", opts.SIRDStalenessRTTs)
			}
			return nil
		},
	})
	Register(Descriptor{
		// Not part of the paper's five-way comparison; used by the
		// related-work contrast (reactive sender-based control).
		Name: "DCTCP", Order: 0, Related: true,
		Build: func(StackOptions) Stack {
			cfg := dctcp.DefaultConfig()
			return Stack{
				Name:        "DCTCP",
				SwitchQueue: cfg.SwitchQueue,
				HostQueue:   cfg.HostQueue,
				New: func(net *netsim.Network, base transport.Config) Instance {
					c := dctcp.DefaultConfig()
					c.Config = base
					return dctcp.New(net, c)
				},
			}
		},
	})
}
