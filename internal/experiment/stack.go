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
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// Instance is the protocol surface the run drives; every stack in the
// table satisfies it, almost entirely through the embedded
// transport.Kernel's flow lifecycle. The run creates one instance per
// engine shard: a flow's sender side lives on its source's instance
// (AddPending, Release), its receiver side on its destination's
// (Adopt), and the two coincide on single-shard runs.
type Instance interface {
	Name() string
	// Reserve sizes the instance for the run's flows before the first
	// is registered: created flows with their source on it, known flows
	// with either end on it, IDs up to maxID (embedded
	// transport.Kernel provides it).
	Reserve(created, known int, maxID netsim.FlowID)
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
// the overlay a builder lays over it (queue disciplines and optional
// egress marker) and its constructor.
type Stack struct {
	Name string
	topo.Overlay
	New func(net *netsim.Network, base transport.Config) Instance
}

// StackOptions tune protocol-specific knobs; amrt.StackOptions is this
// type. One struct is shared by every stack: each row of the stack
// table reads only its own fields (NarrowOptions), and CheckOptions
// rejects fields aimed at a different protocol.
type StackOptions struct {
	// HomaDegree sets Homa's overcommitment level — how many senders
	// one receiver grants simultaneously (default 2).
	HomaDegree int
	// SIRDPoolBytes bounds each SIRD receiver's outstanding scheduled
	// credit in bytes; 0 (the default) sizes the pool automatically at
	// 1.5× the downlink bandwidth-delay product.
	SIRDPoolBytes int64
	// SIRDStalenessRTTs is how long SIRD trusts a sender's demand
	// advertisement before falling back to the receiver's own estimate,
	// in RTTs (default 8).
	SIRDStalenessRTTs int
}

// check rejects negative values, whichever stack reads the field.
func (o StackOptions) check() error {
	if o.HomaDegree < 0 {
		return fmt.Errorf("HomaDegree %d must be non-negative", o.HomaDegree)
	}
	if o.SIRDPoolBytes < 0 {
		return fmt.Errorf("SIRDPoolBytes %d must be non-negative", o.SIRDPoolBytes)
	}
	if o.SIRDStalenessRTTs < 0 {
		return fmt.Errorf("SIRDStalenessRTTs %d must be non-negative", o.SIRDStalenessRTTs)
	}
	return nil
}

// stackRow is one protocol stack of the table.
type stackRow struct {
	name string
	// related marks stacks outside the paper's head-to-head comparison
	// (DCTCP): excluded from ProtocolNames/AllStacks, still buildable by
	// name through NewStack.
	related bool
	// overlay is the queues (and marker) the stack lays over a topology.
	overlay topo.Overlay
	// new builds one instance from the run's transport configuration
	// and the stack's own options (narrowed).
	new func(net *netsim.Network, base transport.Config, opts StackOptions) Instance
	// narrow returns the options the stack reads; nil means none.
	narrow func(StackOptions) StackOptions
}

func (r stackRow) options(opts StackOptions) StackOptions {
	if r.narrow == nil {
		return StackOptions{}
	}
	return r.narrow(opts)
}

// build binds the row to opts.
func (r stackRow) build(opts StackOptions) Stack {
	opts = r.options(opts)
	return Stack{Name: r.name, Overlay: r.overlay, New: func(net *netsim.Network, base transport.Config) Instance {
		return r.new(net, base, opts)
	}}
}

// stackTable is the one list of protocol stacks: the paper's five
// comparison protocols in presentation order, then the related-work
// contrast. ProtocolNames, AllStacks, amrt.Validate, the CLIs and the
// docs checker all read it, so adding a protocol is adding a row.
var stackTable = [...]stackRow{
	{
		name:    "pHost",
		overlay: topo.Overlay{SwitchQueue: phost.SwitchQueue, HostQueue: phost.HostQueue},
		new: func(net *netsim.Network, base transport.Config, _ StackOptions) Instance {
			return phost.New(net, base)
		},
	},
	{
		name:    "Homa",
		overlay: topo.Overlay{SwitchQueue: homa.SwitchQueue, HostQueue: homa.HostQueue},
		new: func(net *netsim.Network, base transport.Config, opts StackOptions) Instance {
			return homa.New(net, homa.Config{Config: base, Degree: opts.HomaDegree})
		},
		narrow: func(opts StackOptions) StackOptions { return StackOptions{HomaDegree: opts.HomaDegree} },
	},
	{
		name:    "NDP",
		overlay: topo.Overlay{SwitchQueue: ndp.SwitchQueue, HostQueue: ndp.HostQueue},
		new: func(net *netsim.Network, base transport.Config, _ StackOptions) Instance {
			return ndp.New(net, base)
		},
	},
	{
		name:    "AMRT",
		overlay: amrtOverlay(core.DefaultConfig()),
		new: func(net *netsim.Network, base transport.Config, _ StackOptions) Instance {
			return core.New(net, core.Config{Config: base})
		},
	},
	{
		name:    "SIRD",
		overlay: topo.Overlay{SwitchQueue: sird.SwitchQueue, HostQueue: sird.HostQueue},
		new: func(net *netsim.Network, base transport.Config, opts StackOptions) Instance {
			return sird.New(net, sird.Config{Config: base, PoolBytes: opts.SIRDPoolBytes, StalenessRTTs: opts.SIRDStalenessRTTs})
		},
		narrow: func(opts StackOptions) StackOptions {
			return StackOptions{SIRDPoolBytes: opts.SIRDPoolBytes, SIRDStalenessRTTs: opts.SIRDStalenessRTTs}
		},
	},
	// Not part of the paper's five-way comparison; used by the
	// related-work contrast (reactive sender-based control).
	{
		name:    "DCTCP",
		related: true,
		overlay: topo.Overlay{SwitchQueue: dctcp.SwitchQueue, HostQueue: dctcp.HostQueue},
		new: func(net *netsim.Network, base transport.Config, _ StackOptions) Instance {
			return dctcp.New(net, base)
		},
	},
}

// withConfig returns st with every instance's transport configuration
// passed through edit first: how a run sets a protocol knob it does not
// own (BlindWindow) or taps the deliveries (chaining the OnData it
// finds).
func withConfig(st Stack, edit func(*transport.Config)) Stack {
	inner := st.New
	st.New = func(net *netsim.Network, base transport.Config) Instance {
		edit(&base)
		return inner(net, base)
	}
	return st
}

// amrtOverlay is AMRT's queues and marker at cfg.
func amrtOverlay(cfg core.Config) topo.Overlay {
	return topo.Overlay{SwitchQueue: cfg.SwitchQueue, HostQueue: core.HostQueue, Marker: cfg.NewMarker}
}

// amrtStack builds AMRT from cfg, zero fields at the paper's defaults:
// the ablation variants.
func amrtStack(cfg core.Config) Stack {
	return Stack{
		Name:    "AMRT",
		Overlay: amrtOverlay(cfg),
		New: func(net *netsim.Network, base transport.Config) Instance {
			c := cfg
			c.Config = base
			return core.New(net, c)
		},
	}
}

func lookupStack(name string) (stackRow, bool) {
	for _, r := range stackTable {
		if r.name == name {
			return r, true
		}
	}
	return stackRow{}, false
}

func stackNames(related bool) []string {
	out := make([]string, 0, len(stackTable))
	for _, r := range stackTable {
		if r.related == related {
			out = append(out, r.name)
		}
	}
	return out
}

// ProtocolNames returns the comparison protocols in the order the
// paper's figures present them. The slice is a copy; callers may keep
// or mutate it.
func ProtocolNames() []string { return stackNames(false) }

// RelatedNames returns the related-work stacks (outside the comparison
// set) in their own presentation order.
func RelatedNames() []string { return stackNames(true) }

// StackNames returns every stack: the comparison set in presentation
// order followed by the related-work set.
func StackNames() []string { return append(ProtocolNames(), RelatedNames()...) }

// HasStack reports whether name is a stack (comparison or related).
func HasStack(name string) bool {
	_, ok := lookupStack(name)
	return ok
}

// NewStack builds the named protocol stack. Unknown names return an
// error; foreign options do not — comparison runs hand one shared
// options struct to every stack and each reads only its own fields (use
// CheckOptions to validate user input).
func NewStack(name string, opts StackOptions) (Stack, error) {
	r, ok := lookupStack(name)
	if !ok {
		return Stack{}, fmt.Errorf("experiment: unknown protocol %q (have %v)", name, StackNames())
	}
	return r.build(opts), nil
}

// MustStack is NewStack for callers whose protocol name is a literal
// (figures, benchmarks, tests); it panics on an unknown name.
func MustStack(name string, opts StackOptions) Stack {
	st, err := NewStack(name, opts)
	if err != nil {
		panic(err)
	}
	return st
}

// AllStacks returns the comparison stacks in presentation order, all
// built from the same shared options.
func AllStacks(opts StackOptions) []Stack {
	var out []Stack
	for _, r := range stackTable {
		if !r.related {
			out = append(out, r.build(opts))
		}
	}
	return out
}

// NarrowOptions returns the fields of opts the named stack reads; a
// comparison or a sweep hands each leg its own share of one shared
// options struct this way.
func NarrowOptions(name string, opts StackOptions) StackOptions {
	r, _ := lookupStack(name)
	return r.options(opts)
}

// CheckOptions validates user options for the named stack: a field the
// stack does not read is an error naming the stack that does (SIRD
// knobs on an AMRT run), and no value may be negative.
func CheckOptions(name string, opts StackOptions) error {
	if NarrowOptions(name, opts) != opts {
		for _, r := range stackTable {
			if r.name != name && r.options(opts) != (StackOptions{}) {
				return fmt.Errorf("Options carries %s knobs but Protocol is %q", r.name, name)
			}
		}
	}
	return opts.check()
}
