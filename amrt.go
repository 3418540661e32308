// Package amrt is a from-scratch reproduction of "AMRT: Anti-ECN
// Marking to Improve Utilization of Receiver-driven Transmission in
// Data Center" (Hu, Huang, Li, Wang, He — ICPP 2020).
//
// It bundles a deterministic packet-level network simulator, five
// receiver-driven datacenter transports (pHost, Homa, NDP, AMRT — the
// paper's contribution — and SIRD, the sender-informed head-to-head),
// the paper's workloads, and the experiment harness that regenerates
// every figure of the paper's evaluation.
//
// This root package is the stable high-level API: describe a topology,
// a workload, and a protocol, and get flow-completion-time and
// utilization results back. The full machinery (custom topologies,
// per-packet hooks, protocol internals) lives in the internal packages
// and is exercised through cmd/amrtsim, cmd/figures, and the examples.
//
// Quick start:
//
//	res, err := amrt.RunContext(ctx, amrt.Config{Protocol: "AMRT", Workload: "WebSearch", Load: 0.5, Flows: 1000})
//	fmt.Printf("AFCT %v, p99 %v, utilization %.2f\n", res.AFCT, res.P99, res.Utilization)
package amrt

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"amrt/internal/experiment"
	"amrt/internal/faults"
	"amrt/internal/metrics"
	"amrt/internal/model"
	"amrt/internal/netsim"
	"amrt/internal/pool"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/trace"
	"amrt/internal/workload"
)

// SimVersion identifies the simulation-behavior generation of this
// build. It is folded into every sweep cache key (see Sweep and
// docs/API.md), so entries computed by an older generation can never
// satisfy a newer binary. Bump it whenever a change alters simulation
// results — protocol logic, topology defaults, workload sampling — and
// leave it alone for pure API or tooling changes.
const SimVersion = "amrt-sim/v11"

// Typed sentinel errors returned by Config.Validate (and therefore by
// RunContext, CompareContext, and Sweep). Match with errors.Is; the
// returned errors wrap these with the offending value and context.
var (
	// ErrUnknownProtocol reports a Config.Protocol outside Protocols()
	// (plus the related-work "DCTCP" contrast stack).
	ErrUnknownProtocol = errors.New("unknown protocol")
	// ErrUnknownWorkload reports a Config.Workload outside Workloads().
	ErrUnknownWorkload = errors.New("unknown workload")
	// ErrBadFaultSpec reports a Config.Faults string that does not
	// parse under the docs/FAULTS.md grammar.
	ErrBadFaultSpec = errors.New("bad fault spec")
	// ErrBadLoad reports a Config.Load outside (0, 1].
	ErrBadLoad = errors.New("load out of range (0,1]")
	// ErrBadFlows reports a negative Config.Flows.
	ErrBadFlows = errors.New("negative flow count")
	// ErrBadTopology reports a Config.Topology with an unknown Kind,
	// invalid dimensions (e.g. an odd or negative fat-tree arity), a
	// negative RTT or a rate the Kind reads that is not finite and
	// positive, or a topology spec string that does not parse (see
	// ParseTopology).
	ErrBadTopology = errors.New("bad topology")
	// ErrUnknownPattern reports a Config.Pattern outside Patterns().
	ErrUnknownPattern = errors.New("unknown traffic pattern")
	// ErrBadPattern reports pattern knobs that contradict the selected
	// pattern or topology (e.g. an incast degree ≥ the host count).
	ErrBadPattern = errors.New("bad pattern parameters")
	// ErrBadPolicy reports a SweepConfig with a negative CellTimeout
	// (see SweepConfig.Validate).
	ErrBadPolicy = errors.New("bad failure policy")
	// ErrBadShards reports a Config.Shards outside [0, 256].
	ErrBadShards = errors.New("bad shard count")
	// ErrBadStackOption reports a Config.Options field that belongs to a
	// different protocol than Config.Protocol (e.g. SIRDPoolBytes on a
	// Homa run) or holds an invalid value.
	ErrBadStackOption = errors.New("bad stack option")
	// ErrBadDuration reports a negative Config.Timeout or
	// Config.MetricsInterval.
	ErrBadDuration = errors.New("negative duration")
)

// Protocols returns the supported comparison transports in the order
// the figures present them (pHost, Homa, NDP, AMRT, SIRD), derived from
// the experiment stack table.
func Protocols() []string {
	return experiment.ProtocolNames()
}

// Workloads returns the five workload names of §8.1.
func Workloads() []string {
	return workload.Names()
}

// Patterns returns the supported traffic patterns: "poisson" (the
// paper's open-loop arrivals and the default), "incast" (synchronized
// fan-in epochs), "shuffle" (all-to-all), and "rpc" (closed-loop
// request/response with deadlines). docs/TOPOLOGIES.md documents the
// knobs of each.
func Patterns() []string {
	return []string{"poisson", "incast", "shuffle", "rpc"}
}

// Topology describes the fabric of a run: a two-tier leaf–spine (the
// paper's evaluation shape and the default), a k-ary fat-tree, or an
// oversubscribed three-tier Clos. The zero value means the scaled-down
// default leaf–spine (4 leaves × 4 spines × 10 hosts/leaf, 10 Gbps,
// ~100 µs RTT). Fields irrelevant to the selected Kind are ignored;
// docs/TOPOLOGIES.md walks through the parameters, host-count math,
// and oversubscription ratios of each family.
type Topology struct {
	// Kind selects the fabric family: "leafspine" (default),
	// "fattree", or "clos" (see TopologyKinds).
	Kind string

	// Leaves is the leaf-switch count: total leaves for "leafspine",
	// leaves per pod for "clos" (default 4 / 2).
	Leaves int
	// Spines is the spine-switch count ("leafspine" only; default 4).
	Spines int
	// HostsPerLeaf is the host count under each leaf or edge switch
	// ("leafspine" and "clos"; default 10 / 16).
	HostsPerLeaf int

	// K is the fat-tree arity ("fattree" only): even, ≥ 4; the fabric
	// has K³/4 hosts (default 4 → 16 hosts; 8 → 128; 16 → 1024).
	K int

	// Pods is the pod count ("clos" only; default 2).
	Pods int
	// Aggs is the aggregation-switch count per pod ("clos" only;
	// default 2).
	Aggs int
	// Cores is the top-tier switch count ("clos" only; default 2).
	Cores int

	// LinkGbps is the host access-link rate in Gbit/s (default 10 for
	// "leafspine"/"fattree", 25 for "clos").
	LinkGbps float64
	// FabricGbps is the mid-tier rate in Gbit/s — leaf↔spine,
	// edge↔agg, or leaf↔agg; 0 means LinkGbps ("clos" defaults to
	// 100).
	FabricGbps float64
	// CoreGbps is the top-tier rate in Gbit/s — agg↔core; 0 means
	// FabricGbps. Ignored by "leafspine", which has no third tier.
	CoreGbps float64
	// RTT is the worst-case propagation round-trip across the fabric
	// (default 100µs); the per-link delay is derived from the hop
	// count of the selected Kind.
	RTT time.Duration
}

// StackOptions carries per-protocol tuning knobs, validated against the
// selected protocol: Validate rejects fields aimed at a different stack
// with ErrBadStackOption, so a typo'd configuration fails loudly
// instead of silently running defaults.
type StackOptions = experiment.StackOptions

// Config describes one simulation run.
type Config struct {
	// Protocol is one of Protocols(); default "AMRT".
	Protocol string
	// Workload is one of Workloads(); default "WebSearch".
	Workload string
	// Load is the offered load fraction in (0,1]; default 0.5.
	Load float64
	// Flows is the number of flows to inject; default 1000.
	Flows int
	// Seed makes the run reproducible; default 1.
	Seed int64
	// Topology of the fabric; zero value = default fabric.
	Topology Topology
	// Pattern selects the traffic shape, one of Patterns(); default
	// "poisson". "poisson" draws flow sizes from Workload; the other
	// patterns use their fixed per-flow sizes below and ignore
	// Workload.
	Pattern string
	// IncastDegree is the synchronized sender fan-in of each incast
	// epoch ("incast" only; default 32, must be < the host count).
	IncastDegree int
	// IncastBytes is the per-sender block size in bytes ("incast"
	// only; default 64 KB).
	IncastBytes int64
	// ShuffleWidth is the number of peers each host streams to
	// ("shuffle" only); 0 (the default) means full all-to-all. The
	// shuffle's flow count is Hosts × width — Flows is ignored.
	ShuffleWidth int
	// ShuffleBytes is the per-pair transfer size in bytes ("shuffle"
	// only; default 1 MB).
	ShuffleBytes int64
	// RPCRequestBytes is the client→server request size in bytes
	// ("rpc" only; default 1 KB).
	RPCRequestBytes int64
	// RPCResponseBytes is the server→client response size in bytes
	// ("rpc" only; default 64 KB). Flows counts RPCs; each contributes
	// a request and a response flow.
	RPCResponseBytes int64
	// RPCDeadline is the budget from request start to response
	// completion ("rpc" only); 0 disables deadlines. Misses are
	// reported in Result.DeadlineMissed.
	RPCDeadline time.Duration
	// Options carries protocol-specific knobs. Setting a field that
	// belongs to a protocol other than Protocol makes Validate fail
	// with ErrBadStackOption; Compare narrows the shared struct to each
	// leg's own fields automatically.
	Options StackOptions
	// Timeout bounds the simulated horizon (default 20 s of virtual
	// time); incomplete flows at the horizon are reported in Result.
	Timeout time.Duration
	// TracePath, if set, writes a CSV event trace (flow starts and
	// completions, per-packet deliveries, drops) to the given file.
	TracePath string
	// MetricsPath, if set, writes a JSON telemetry dump — per-downlink
	// queue depth, utilization, and anti-ECN mark-rate time series plus
	// network and protocol counters, sampled on the simulation clock so
	// the file is byte-identical across same-seed runs. The schema is
	// documented in docs/TELEMETRY.md.
	MetricsPath string
	// MetricsCSVPath, if set, additionally writes the time-series
	// portion of the telemetry as one wide CSV.
	MetricsCSVPath string
	// MetricsInterval is the telemetry sampling period in virtual time
	// (default 100 µs).
	MetricsInterval time.Duration
	// Faults, if set, is a fault-injection spec (grammar in
	// docs/FAULTS.md), e.g.
	//
	//	link=leaf0->spine1,down=5ms,up=8ms;ctrl-loss=0.01
	//
	// flapping one fabric link and dropping 1% of control packets. The
	// plan's randomness derives from Seed unless the spec pins its own
	// with a seed= clause.
	Faults string
	// Shards splits the simulation across engine shards synchronized
	// by conservative link-delay lookahead (see docs/PARALLELISM.md).
	// It is a determinism check, not a speedup: results — flow
	// outcomes, traces, metrics dumps — are byte-identical at every
	// shard count, so it is deliberately excluded from the sweep cache
	// key. 0 or 1 (the default) runs the single-engine golden
	// reference path. Fault plans combine freely with sharding: the
	// fault layer homes every event to the shard owning the affected
	// port, host, or switch (see docs/FAULTS.md).
	Shards int
	// Audit attaches the runtime invariant auditor (internal/audit):
	// packet-conservation, queue-bound, and grant-budget checks run every
	// metrics interval of virtual time plus once after the run, and the
	// first violation panics with a forensic dump (flow states, queue
	// occupancies, pending event count). Off by default; enabling it
	// costs a few percent of wall time and never changes simulation
	// results — it only observes. It is part of the sweep cache key, so
	// audited and unaudited campaigns never share cache entries.
	Audit bool
}

func (c Config) normalized() Config {
	if c.Protocol == "" {
		c.Protocol = "AMRT"
	}
	if c.Workload == "" {
		c.Workload = "WebSearch"
	}
	if c.Load == 0 {
		c.Load = 0.5
	}
	if c.Flows == 0 {
		c.Flows = 1000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout == 0 {
		c.Timeout = 20 * time.Second
	}
	if c.Pattern == "" {
		c.Pattern = "poisson"
	}
	if c.IncastDegree == 0 {
		c.IncastDegree = 32
	}
	if c.IncastBytes == 0 {
		c.IncastBytes = 64 << 10
	}
	if c.ShuffleBytes == 0 {
		c.ShuffleBytes = 1 << 20
	}
	if c.RPCRequestBytes == 0 {
		c.RPCRequestBytes = 1 << 10
	}
	if c.RPCResponseBytes == 0 {
		c.RPCResponseBytes = 64 << 10
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	return c
}

// Validate checks the configuration after default-filling and reports
// the first problem as an error wrapping one of the package's typed
// sentinels (ErrUnknownProtocol, ErrBadStackOption, ErrUnknownWorkload,
// ErrBadLoad, ErrBadFlows, ErrBadDuration, ErrBadFaultSpec,
// ErrBadShards, ErrBadTopology, ErrBadPattern, ErrUnknownPattern), so
// callers can branch with errors.Is. The
// zero Config is valid. RunContext, CompareContext, and Sweep validate
// before running — user input never panics.
func (c Config) Validate() error {
	c = c.normalized()
	if !experiment.HasStack(c.Protocol) {
		return fmt.Errorf("%w %q (have %v)", ErrUnknownProtocol, c.Protocol, experiment.StackNames())
	}
	if err := experiment.CheckOptions(c.Protocol, c.Options); err != nil {
		return fmt.Errorf("%w: %v", ErrBadStackOption, err)
	}
	if !workload.Known(c.Workload) {
		return fmt.Errorf("%w %q (have %v)", ErrUnknownWorkload, c.Workload, Workloads())
	}
	if !(c.Load > 0 && c.Load <= 1) { // NaN fails too
		return fmt.Errorf("%w: %v", ErrBadLoad, c.Load)
	}
	if c.Flows < 0 {
		return fmt.Errorf("%w: %d", ErrBadFlows, c.Flows)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("%w: Timeout %v", ErrBadDuration, c.Timeout)
	}
	if c.MetricsInterval < 0 {
		return fmt.Errorf("%w: MetricsInterval %v", ErrBadDuration, c.MetricsInterval)
	}
	if c.Faults != "" {
		if _, err := faults.Parse(c.Faults); err != nil {
			return fmt.Errorf("%w: %v", ErrBadFaultSpec, err)
		}
	}
	if c.Shards < 0 || c.Shards > 256 {
		return fmt.Errorf("%w: %d (want 0..256)", ErrBadShards, c.Shards)
	}
	b, err := c.Topology.builder()
	if err != nil {
		return err
	}
	switch c.Pattern {
	case "poisson":
	case "incast":
		if c.IncastDegree < 1 || c.IncastDegree >= b.Hosts() {
			return fmt.Errorf("%w: incast degree %d must be in [1, hosts-1=%d]",
				ErrBadPattern, c.IncastDegree, b.Hosts()-1)
		}
		if c.IncastBytes < 1 {
			return fmt.Errorf("%w: incast bytes %d must be positive", ErrBadPattern, c.IncastBytes)
		}
	case "shuffle":
		if c.ShuffleWidth < 0 {
			return fmt.Errorf("%w: shuffle width %d must be non-negative", ErrBadPattern, c.ShuffleWidth)
		}
		if c.ShuffleBytes < 1 {
			return fmt.Errorf("%w: shuffle bytes %d must be positive", ErrBadPattern, c.ShuffleBytes)
		}
	case "rpc":
		if c.RPCRequestBytes < 1 || c.RPCResponseBytes < 1 {
			return fmt.Errorf("%w: RPC request/response sizes (%d, %d) must be positive",
				ErrBadPattern, c.RPCRequestBytes, c.RPCResponseBytes)
		}
		if c.RPCDeadline < 0 {
			return fmt.Errorf("%w: RPC deadline %v must be non-negative", ErrBadPattern, c.RPCDeadline)
		}
	default:
		return fmt.Errorf("%w %q (have %v)", ErrUnknownPattern, c.Pattern, Patterns())
	}
	return nil
}

// Result summarizes one run.
type Result struct {
	Protocol  string
	Workload  string
	Load      float64
	Completed int
	Total     int

	// AFCT and P99 are the average and 99th-percentile flow completion
	// times over completed flows.
	AFCT time.Duration
	P99  time.Duration

	// Utilization is the mean busy-period utilization of the receiver
	// downlinks that carried flows.
	Utilization float64

	// Drops counts packets the network lost: refused by an egress
	// queue, a host's NIC queue as well as a switch port's, flushed from
	// a queue by a crash or reboot, or left without a route. Trims
	// counts NDP payload trims.
	Drops int64
	Trims int64

	// Events is the number of simulator events executed (a cost proxy).
	Events uint64

	// Stalled counts flows the liveness watchdog flagged: no data
	// progress for the stall window while both access links were up.
	// Killed counts flows terminated because an endpoint host crashed
	// (see the crash= fault clause). Both are zero on fault-free runs.
	Stalled int
	Killed  int

	// DeadlineTotal counts flows that carried a completion deadline
	// and DeadlineMissed those that finished late or not at all. Both
	// are zero unless the "rpc" pattern runs with RPCDeadline set.
	DeadlineTotal  int
	DeadlineMissed int
}

// RunContext executes one simulation under ctx and returns its results.
// The configuration is validated first (see Config.Validate); invalid
// input returns a typed error instead of panicking. A cancelled context
// aborts the simulation promptly — the engine polls ctx every few
// thousand events, so even a multi-second run stops within
// milliseconds — and returns the partial Result together with ctx.Err().
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	cfg = cfg.normalized()
	st, err := experiment.NewStack(cfg.Protocol, cfg.Options)
	if err != nil {
		return Result{}, fmt.Errorf("%w %q (have %v)", ErrUnknownProtocol, cfg.Protocol, experiment.StackNames())
	}
	b, err := cfg.Topology.builder()
	if err != nil {
		return Result{}, err // validated above; cannot fail
	}
	run := experiment.LeafSpineRun{
		Topo:    b,
		Flows:   generateFlows(cfg, b),
		Stack:   st,
		Horizon: sim.FromDuration(cfg.Timeout),
		Audit:   cfg.Audit,
		Shards:  cfg.Shards,
	}
	if ctx.Done() != nil {
		run.Interrupt = func() bool { return ctx.Err() != nil }
	}
	if cfg.Faults != "" {
		pl, err := faults.Parse(cfg.Faults) // validated above; cannot fail
		if err != nil {
			return Result{}, fmt.Errorf("%w: %v", ErrBadFaultSpec, err)
		}
		if pl.Seed == 0 {
			pl.Seed = cfg.Seed
		}
		run.Faults = pl
	}
	var rec *trace.Recorder
	if cfg.TracePath != "" {
		rec = &trace.Recorder{MaxEvents: 4 << 20}
		run.Trace = rec
	}
	var reg *metrics.Registry
	if cfg.MetricsPath != "" || cfg.MetricsCSVPath != "" {
		reg = metrics.NewRegistry()
		run.Metrics = reg
		run.MetricsInterval = experiment.MetricsIntervalOrDefault(sim.FromDuration(cfg.MetricsInterval))
	}
	res, err := run.RunE()
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadFaultSpec, err)
	}
	out := Result{
		Protocol:    cfg.Protocol,
		Workload:    cfg.Workload,
		Load:        cfg.Load,
		Completed:   res.Completed,
		Total:       res.Total,
		AFCT:        res.AFCT.Duration(),
		P99:         res.P99.Duration(),
		Utilization: res.Utilization,
		Drops:       res.Drops,
		Trims:       res.Trims,
		Events:      res.Events,
		Stalled:     res.Stalled,
		Killed:      res.Killed,

		DeadlineTotal:  res.DeadlineTotal,
		DeadlineMissed: res.DeadlineMissed,
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if rec != nil {
		if err := writeTrace(cfg.TracePath, rec); err != nil {
			return out, fmt.Errorf("writing trace: %w", err)
		}
	}
	if reg != nil {
		// res.Metrics, not reg: on a sharded run the caller's registry
		// holds only shard 0's share and the runner returns the
		// canonical merge of all per-shard registries.
		if err := writeMetrics(cfg, res.Metrics); err != nil {
			return out, fmt.Errorf("writing metrics: %w", err)
		}
	}
	return out, nil
}

// generateFlows expands the normalized (and already validated) config
// into flow specs for the selected Pattern on the given fabric.
func generateFlows(cfg Config, b topo.Builder) []workload.FlowSpec {
	switch cfg.Pattern {
	case "incast":
		return workload.GenerateIncast(workload.IncastConfig{
			Hosts:    b.Hosts(),
			Degree:   cfg.IncastDegree,
			Bytes:    cfg.IncastBytes,
			Load:     cfg.Load,
			HostRate: b.AccessRate(),
			Count:    cfg.Flows,
			Seed:     cfg.Seed,
		})
	case "shuffle":
		return workload.GenerateShuffle(workload.ShuffleConfig{
			Hosts: b.Hosts(),
			Width: cfg.ShuffleWidth,
			Bytes: cfg.ShuffleBytes,
		})
	case "rpc":
		return workload.GenerateRPC(workload.RPCConfig{
			Hosts:         b.Hosts(),
			Load:          cfg.Load,
			HostRate:      b.AccessRate(),
			RequestBytes:  cfg.RPCRequestBytes,
			ResponseBytes: cfg.RPCResponseBytes,
			Deadline:      sim.FromDuration(cfg.RPCDeadline),
			Count:         cfg.Flows,
			Seed:          cfg.Seed,
		})
	default: // "poisson"
		return workload.GeneratePoisson(workload.PoissonConfig{
			Hosts:    b.Hosts(),
			Load:     cfg.Load,
			HostRate: b.AccessRate(),
			Dist:     workload.ByName(cfg.Workload),
			Count:    cfg.Flows,
			Seed:     cfg.Seed,
		})
	}
}

func writeTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := rec.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

func writeMetrics(cfg Config, reg *metrics.Registry) error {
	write := func(path string, dump func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := dump(f); err != nil {
			return err
		}
		return f.Close()
	}
	if err := write(cfg.MetricsPath, reg.WriteJSON); err != nil {
		return err
	}
	return write(cfg.MetricsCSVPath, reg.WriteCSV)
}

// CompareContext runs the same traffic under every protocol and returns
// the results in paper order (pHost, Homa, NDP, AMRT, SIRD — the order
// Protocols() reports), so figure code indexes results without a map
// sort. cfg.Protocol is ignored. A shared Options struct is narrowed to
// each leg's own fields, so comparison runs may carry knobs for several
// protocols at once; every leg's Config is validated before any leg
// runs, and the legs then run on the experiment worker pool (up to
// GOMAXPROCS at once). Trace and metrics output paths get the protocol
// name spliced in before the extension (out.json → out.AMRT.json,
// extensionless out → out.AMRT) so the runs do not overwrite each
// other. When a leg fails or ctx is cancelled, the remaining legs are
// cancelled, and it returns the legs that completed up to the first
// that did not, plus the first error: results[i] is always
// Protocols()[i].
func CompareContext(ctx context.Context, cfg Config) ([]Result, error) {
	names := experiment.ProtocolNames()
	legs := make([]Config, len(names))
	for i, p := range names {
		c := cfg
		c.Protocol = p
		c.Options = experiment.NarrowOptions(p, cfg.Options)
		c.TracePath = withProtoSuffix(cfg.TracePath, p)
		c.MetricsPath = withProtoSuffix(cfg.MetricsPath, p)
		c.MetricsCSVPath = withProtoSuffix(cfg.MetricsCSVPath, p)
		if err := c.Validate(); err != nil {
			return nil, err
		}
		legs[i] = c
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var first sync.Once
	var firstErr error
	errs := make([]error, len(legs))
	out, ran, _ := pool.ParallelCtx(runCtx, len(legs), 0, func(i int) Result {
		r, err := RunContext(runCtx, legs[i])
		if err != nil {
			errs[i] = err
			first.Do(func() { firstErr = err; cancel() })
		}
		return r
	})
	for i := range out {
		if !ran[i] || errs[i] != nil {
			// A leg that never started was cancelled with ctx.
			return out[:i], cmp.Or(firstErr, ctx.Err())
		}
	}
	return out, nil
}

// withProtoSuffix splices proto into path before the final element's
// extension: out.json → out.AMRT.json. An extensionless final element
// gets the suffix appended (out → out.AMRT, ./dir/out → ./dir/out.AMRT
// — a dot in a parent directory never counts as an extension), and a
// dotfile keeps its name intact (.trace → .trace.AMRT).
func withProtoSuffix(path, proto string) string {
	if path == "" {
		return ""
	}
	dir, base := filepath.Split(path)
	ext := filepath.Ext(base)
	if ext == base {
		// The whole element is the "extension": a dotfile like
		// ".trace". Splicing before it would erase the name.
		ext = ""
	}
	return dir + base[:len(base)-len(ext)] + "." + proto + ext
}

// Gain evaluates the paper's §5 analytical model: the best- and
// worst-case speedup of AMRT over a conservative receiver-driven
// protocol for a flow of size bytes whose rate was reduced to
// rOverC × capacity.
func Gain(sizeBytes int64, rOverC float64, linkGbps float64, rtt time.Duration) (utilMin, utilMax, fctMin, fctMax float64) {
	c := sim.Rate(linkGbps * float64(sim.Gbps))
	p := model.GainParams{
		C: c, R: sim.Rate(float64(c) * rOverC), S: sizeBytes,
		TR: 0, RTT: sim.FromDuration(rtt), MSS: netsim.MSS,
	}
	return p.UtilizationGain(p.TPrimeMax()), p.UtilizationGain(p.TPrimeMin()),
		p.FCTGain(p.TPrimeMax()), p.FCTGain(p.TPrimeMin())
}
