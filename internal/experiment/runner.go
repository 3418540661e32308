package experiment

import (
	"fmt"
	"slices"
	"sort"

	"amrt/internal/audit"
	"amrt/internal/faults"
	"amrt/internal/metrics"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/trace"
	"amrt/internal/transport"
	"amrt/internal/workload"
)

// LeafSpineRun is one large-scale simulation: a protocol stack on a
// datacenter fabric with a list of flows. Despite the historical name
// it drives any topo.Builder — leaf–spine, k-ary fat-tree, or
// three-tier Clos — through the same route/ECMP, fault, telemetry, and
// audit machinery.
type LeafSpineRun struct {
	Topo    topo.Builder
	Stack   Stack
	Flows   []workload.FlowSpec
	Horizon sim.Time // hard stop; incomplete flows are reported

	// Shards is the engine-shard count (see docs/PARALLELISM.md): 0 or 1
	// runs the single-engine reference path; higher values partition the
	// fabric across that many cores, hosts riding with their ToR, and run
	// the conservative time-window loop. Results are byte-identical at
	// every shard count, fault plans included. Sharded runs require a
	// finite Horizon.
	Shards int

	// Trace, if non-nil, records per-flow timelines and drops. Sharded
	// runs record into one recorder per shard and absorb them back into
	// this one after the run; the canonical CSV sort makes the dump
	// byte-identical to a single-shard run's.
	Trace *trace.Recorder

	// Faults, if non-nil, is a fault-injection plan (see internal/faults):
	// its loss processes wrap the stack's switch queues and its link and
	// node events are homed to the owning shards before the run starts.
	// Unknown link/host/switch names in the plan are an RunE error —
	// plans are validated when parsed, but only the built topology can
	// resolve names.
	Faults *faults.Plan

	// Metrics, if non-nil, receives the run's telemetry: per-downlink
	// queue/utilization/mark-rate series, network delivery and drop
	// counters, kernel flow counters, and protocol-specific counters —
	// sampled every MetricsInterval of virtual time (default 100 µs) by
	// one late-band ticker per shard on the simulation clock, so output
	// is deterministic (see internal/metrics and docs/TELEMETRY.md).
	// Sharded runs register per-shard slices of each instrument and merge
	// them after the run; read the merged registry from RunResult.Metrics
	// (which is this registry itself on single-shard runs).
	Metrics *metrics.Registry
	// MetricsInterval is the sampling period (default
	// DefaultMetricsInterval).
	MetricsInterval sim.Time

	// Interrupt, if non-nil, is polled every few thousand executed
	// events (sim.Engine.SetInterrupt) on every shard engine; returning
	// true aborts the run early. Context-cancellable callers set it to
	// `ctx.Err() != nil`. An interrupt that never fires does not perturb
	// determinism.
	Interrupt func() bool

	// Audit attaches the runtime invariant auditor (internal/audit):
	// conservation, queue-bound, and grant-budget checks run every
	// MetricsInterval of virtual time plus once after the run, panicking
	// with a forensic dump on the first violation. Sharded runs audit
	// each shard's slice on that shard's clock and check the cross-shard
	// grant-budget ledger at window barriers. Off by default — the
	// accounting the checks read is maintained regardless, but the
	// periodic sweep costs a few percent of wall time.
	Audit bool
}

// Late-band sub-keys of every periodic observer in the module, one
// sim.Engine.Every ticker each: observer slots of the sim.SubObserver
// partition, so an observer sees the instant settled, after every
// same-instant fault action. (time, sub) pairs must be unique per
// engine; this block is the one place that is checked.
const (
	subMetrics  = sim.SubObserver | 1 // run: each shard's metrics sample
	subWatchdog = sim.SubObserver | 2 // run: each shard's stall watchdog
	subAudit    = sim.SubObserver | 3 // run: each shard's invariant auditor
	// ScenarioHarness.TrackUtil: the harness's n-th tracked port ticks
	// under subUtil+n, so it must stay the last slot.
	subUtil = sim.SubObserver | 4
)

// FlowOutcome is one flow's final disposition in a RunResult.
type FlowOutcome struct {
	// ID is the flow ID from the workload spec.
	ID netsim.FlowID
	// Outcome is the terminal state: completed, stalled, running
	// (incomplete at horizon), or killed-by-crash.
	Outcome transport.Outcome
	// LastProgress is the last virtual time data reached the receiver
	// (zero if none ever did).
	LastProgress sim.Time
	// Diagnosis explains non-completed outcomes ("" for completed).
	Diagnosis string
	// MissedDeadline reports a flow with a workload deadline that
	// completed late or not at all (see workload.FlowSpec.Deadline).
	MissedDeadline bool
}

// RunResult aggregates what the figures need from one run.
type RunResult struct {
	Stack     string
	Completed int
	Total     int

	AFCT sim.Time
	P99  sim.Time

	// Utilization is the paper's bottleneck metric: total delivered
	// payload over total downlink capacity during backlogged time (the
	// union of each downlink's flows' active intervals — idle periods
	// with nothing to send do not count against the protocol). The
	// aggregation is byte-weighted across downlinks, so an RTT-bound
	// tiny flow does not drag the figure the way an unweighted mean
	// would.
	Utilization float64

	// MaxQueue is the deepest egress queue observed on any monitored
	// downlink, in packets.
	MaxQueue int

	Drops   int64
	Trims   int64
	LastEnd sim.Time
	// Events counts dispatched simulation events summed across shard
	// engines, excluding the late observer band (metrics/watchdog/audit
	// ticks), so the figure is identical at every shard count.
	Events    uint64
	Collector *stats.FCTCollector

	// Metrics is the registry to dump: the LeafSpineRun.Metrics registry
	// itself on single-shard runs, or the merged view of the per-shard
	// registries on sharded runs. Nil when no registry was attached.
	Metrics *metrics.Registry

	// Outcomes lists every responsive flow's final disposition in
	// workload spec order; Stalled and Killed count the watchdog-flagged
	// and crash-killed subsets. AuditChecks/AuditViolations report the
	// invariant auditors' activity (zero when Audit is off; a violation
	// normally panics before the result is built).
	Outcomes        []FlowOutcome
	Stalled         int
	Killed          int
	AuditChecks     int64
	AuditViolations int64

	// DeadlineTotal counts flows carrying a workload deadline;
	// DeadlineMissed counts the subset that finished late or never
	// (including RPC responses whose request never completed).
	DeadlineTotal  int
	DeadlineMissed int
}

// Run executes the simulation synchronously and returns its result,
// panicking on configuration errors. Callers that want to surface bad
// configurations as diagnosable failures use RunE.
func (r LeafSpineRun) Run() RunResult {
	res, err := r.RunE()
	if err != nil {
		panic(err)
	}
	return res
}

// RunE executes the simulation synchronously, returning an error for
// configurations that cannot run: a sharded run without a finite
// horizon, or a fault plan naming links, hosts, or switches the built
// topology does not have.
func (r LeafSpineRun) RunE() (RunResult, error) {
	x := &run{LeafSpineRun: r}
	if err := x.build(); err != nil {
		return RunResult{}, err
	}
	x.newInstances()
	x.registerFlows()
	if err := x.applyFaults(); err != nil {
		return RunResult{}, err
	}
	x.startWatchdog()
	x.startAudit()
	x.startMetrics()
	x.execute()
	res := x.collect()
	// Nothing reads jitter after collect: the ports' streams go to the
	// next run.
	x.ls.Net.Release()
	return res, nil
}

// run is one RunE call in progress. Its steps run in the order RunE
// lists them, each leaving in these fields what the later ones need.
type run struct {
	LeafSpineRun

	ls      *topo.Fabric
	shards  []*netsim.Shard
	horizon sim.Time // sim.Forever when the request gave none

	// Per-shard slices of the run's mutable state, merged by collect.
	// Index s belongs to shard s's goroutine while windows execute.
	cols  []*stats.FCTCollector
	parts []*metrics.Registry // nil entries without a registry
	recs  []*trace.Recorder   // nil entries without a recorder
	insts []Instance

	// all lists the run's flows in spec order. dsts (an entry for every
	// flow's destination) and deps are fully built by registerFlows and
	// only read during the run; a dstState's fields are written by the
	// destination's home shard alone.
	all  []*transport.Flow
	dsts transport.HostTable[dstState]
	deps transport.FlowTable[dependents]

	audits []*audit.Auditor
	res    RunResult
}

// dstState is per-destination state for the utilization metric:
// delivered payload bytes and the flows targeting the host (for the
// backlogged-interval computation after the run). The downlink port
// doubles as the watchdog's receiver-side admin-state probe.
type dstState struct {
	mon     *netsim.PortMonitor
	dl      *netsim.Port
	payload int64
	flows   []*transport.Flow
}

// dependents lists the flows waiting for one parent (workload
// FlowSpec.After): registered without a start, released when the parent
// completes, so request/response loops are closed-loop.
type dependents struct{ children []depChild }

type depChild struct {
	flow   *transport.Flow
	offset sim.Time // spec Start: delay after the parent's End
}

// build constructs the fabric with the stack's overlay (switch queues
// wrapped by the fault plan's loss processes) and partitions it.
func (r *run) build() error {
	ov := topo.Overlay{
		HostQueue:   r.Stack.HostQueue,
		SwitchQueue: r.Stack.SwitchQueue,
		Marker:      r.Stack.Marker,
	}
	if r.Faults != nil {
		ov.SwitchQueue = r.Faults.WrapQueues(ov.SwitchQueue)
	}
	r.ls = r.Topo.Build(ov)
	r.horizon = r.Horizon
	if r.horizon == 0 {
		r.horizon = sim.Forever
	}
	if r.Shards > 1 {
		if r.horizon == sim.Forever {
			return fmt.Errorf("experiment: sharded runs require a finite Horizon")
		}
		assignment := shardAssignment(r.ls, r.Shards)
		r.ls.Net.Partition(r.Shards, func(n netsim.Node) int { return assignment[n.ID()] })
	}
	r.shards = r.ls.Net.Shards()
	r.res = RunResult{Stack: r.Stack.Name, Total: len(r.Flows)}
	return nil
}

// newInstances creates each shard's collector, registry and recorder
// slice and, on top of them, its stack instance.
func (r *run) newInstances() {
	n := len(r.shards)
	r.cols = make([]*stats.FCTCollector, n)
	r.parts = make([]*metrics.Registry, n)
	r.recs = make([]*trace.Recorder, n)
	r.insts = make([]Instance, n)
	for s, sh := range r.shards {
		r.cols[s] = stats.NewFCTCollector()
		if r.Metrics != nil {
			r.parts[s] = r.Metrics
			if s > 0 {
				r.parts[s] = metrics.NewRegistry()
			}
		}
		base := transport.Config{
			RTT:       r.ls.RTT(),
			Shard:     sh,
			Collector: r.cols[s],
			Metrics:   r.parts[s],
			OnDone:    r.onDone,
			OnData:    r.onData,
		}
		if r.Trace != nil {
			r.recs[s] = r.Trace
			if s > 0 {
				r.recs[s] = &trace.Recorder{MaxEvents: r.Trace.MaxEvents}
			}
			r.recs[s].AttachShard(sh, &base)
		}
		if r.Metrics != nil {
			sh.RegisterMetrics(r.parts[s])
		}
		r.insts[s] = r.Stack.New(r.ls.Net, base)
	}
}

// onData credits a delivered data packet to its destination's payload.
func (r *run) onData(f *transport.Flow, pkt *netsim.Packet) {
	r.dsts.Get(f.Dst.ID()).payload += int64(pkt.Size)
}

// onDone runs on f's home shard when it completes, and releases its
// dependents.
func (r *run) onDone(f *transport.Flow) {
	deps := r.deps.Get(f.ID)
	if deps == nil {
		return
	}
	for _, dc := range deps.children {
		// The release handshake crosses shards through the
		// deterministic signal channel: one signal starts the child on
		// its source shard, one marks it released on its home shard.
		// Both signals take exactly one lookahead at every shard count
		// — including one — so the child's start time is
		// partition-independent.
		child := dc.flow
		start := max(f.End+dc.offset, f.End+r.ls.Net.Lookahead())
		home := r.shards[f.Home]
		home.Signal(f.Dst, child.Src, func() {
			r.insts[child.Src.Shard().Index()].Release(child, start)
		})
		home.Signal(f.Dst, child.Dst, func() {
			child.Released = true
			child.Start = start
			r.noteStarted(child)
		})
	}
}

// noteStarted books a released flow with its destination and the trace.
// It runs at registration for an independent flow and, on the flow's
// home shard, at the release signal for a dependent one.
func (r *run) noteStarted(f *transport.Flow) {
	if !f.Unresponsive {
		d := r.dsts.Get(f.Dst.ID())
		d.flows = append(d.flows, f)
	}
	if rec := r.recs[f.Home]; rec != nil {
		rec.RecordStart(f)
	}
}

// registerFlows creates every flow — dependents included — up front in
// spec order.
func (r *run) registerFlows() {
	r.all = make([]*transport.Flow, len(r.Flows))
	for i, fs := range r.Flows {
		src, dst := r.ls.Hosts[fs.Src], r.ls.Hosts[fs.Dst]
		// RegisterMetrics attaches (or reuses) the monitor and, with a
		// registry, publishes the downlink's telemetry series on the
		// owning shard. Spec order makes the registration order
		// deterministic.
		r.dsts.GetOrBuild(dst.ID(), func() *dstState {
			dl := r.ls.Downlink(fs.Dst)
			return &dstState{mon: dl.RegisterMetrics(r.parts[dst.Shard().Index()]), dl: dl}
		})
		f := registerFlow(r.insts, fs.ID, src, dst, fs.Size, fs.Unresponsive)
		r.all[i] = f
		if fs.Unresponsive {
			r.res.Total-- // can never complete; exclude from the target
		}
		if fs.After == 0 {
			releaseFlow(r.insts, f, fs.Start)
			r.noteStarted(f)
			continue
		}
		// Destination bookkeeping and the trace start record wait for
		// the release signal, like the injection itself.
		deps := r.deps.Get(fs.After)
		if deps == nil {
			deps = new(dependents)
			r.deps.Put(fs.After, deps)
		}
		deps.children = append(deps.children, depChild{flow: f, offset: fs.Start})
	}
}

// registerFlow creates a flow the way every harness does, even when
// both ends share an instance: sender side on the source shard's
// instance (AddPending), receiver side adopted by the destination's,
// which becomes the flow's home — so no later flow's source-side install
// can stomp a host handler another instance owns. The flow does not
// start before releaseFlow.
func registerFlow(insts []Instance, id netsim.FlowID, src, dst *netsim.Host, size int64, unresponsive bool) *transport.Flow {
	f := insts[src.Shard().Index()].AddPending(id, src, dst, size, unresponsive)
	home := dst.Shard().Index()
	insts[home].Adopt(f)
	f.Home = int32(home)
	return f
}

// releaseFlow starts a registered flow at the given time. Call it
// during setup only: a dependent's release crosses shards by signal
// (see run.onDone).
func releaseFlow(insts []Instance, f *transport.Flow, start sim.Time) {
	f.Released = true
	f.Start = start
	insts[f.Src.Shard().Index()].Release(f, start)
}

// applyFaults homes the fault plan's events to the built topology.
func (r *run) applyFaults() error {
	if r.Faults == nil {
		return nil
	}
	// Node-fault hook: each shard's stack instance drops the slice of
	// the crashed host's state it owns, at the instant the fault layer
	// parks the host's links. The fault layer fires the hook once per
	// shard, on that shard's engine.
	r.Faults.CrashHook = func(sh *netsim.Shard, h *netsim.Host) {
		r.insts[sh.Index()].OnHostCrash(h)
	}
	if err := r.Faults.Apply(r.ls.Net, r.horizon); err != nil {
		return err
	}
	r.Faults.RegisterMetrics(r.parts[0])
	return nil
}

// every runs an observer's work on eng at first, first+interval, and so
// on, in the late band under sub (sim.Engine.Every). A finite-horizon
// run ticks to the horizon unconditionally — a pure function of (first,
// interval, horizon), identical at every shard count. An open-ended run
// (necessarily single-shard) ticks while a responsive flow is live, so
// it terminates once all are done; dependents awaiting release are not
// Done and keep the ticks alive too. This is where every observer of a
// run — metrics, watchdog, auditor — is told to stop.
func (r *run) every(eng *sim.Engine, sub uint64, first, interval sim.Time, work func(now sim.Time)) {
	eng.Every(first, interval, r.horizon, sub, func() bool {
		work(eng.Now())
		return r.horizon != sim.Forever || r.anyLive()
	})
}

func (r *run) anyLive() bool {
	for _, f := range r.all {
		if !f.Done && !f.Unresponsive {
			return true
		}
	}
	return false
}

// startWatchdog arms the flow-liveness watchdog: no data progress for
// DefaultStallRTTs base RTTs while both access links are
// administratively up → Stalled (a late completion, or resumed progress,
// clears the report).
// One tick chain per shard, each inspecting only the flows homed there;
// the access-link admin probes consult the fault plan's AdminDown
// oracle — a pure function of the plan, safe from any shard — instead
// of reading another shard's live port state.
func (r *run) startWatchdog() {
	window := r.stallWindow()
	for s, sh := range r.shards {
		s := s
		eng := sh.Eng()
		// live is the shard's watch list: the responsive flows homed
		// here, in creation order, compacted in place as they finish so
		// a tick walks what can still stall, not every flow of the run.
		live := slices.DeleteFunc(slices.Clone(r.insts[s].OrderedFlows()), func(f *transport.Flow) bool {
			return int(f.Home) != s || f.Unresponsive
		})
		r.every(eng, subWatchdog, window/4, window/4, func(now sim.Time) {
			n := 0
			for _, f := range live {
				if f.Done {
					continue
				}
				live[n] = f
				n++
				if !f.Released || now < f.Start || f.Outcome != transport.OutcomeRunning {
					continue
				}
				if now-lastProgress(f) < window {
					continue
				}
				// A parked access link explains the silence: that flow is
				// a fault casualty, not a liveness bug.
				if r.Faults.AdminDown(f.Src.NIC(), now) || r.Faults.AdminDown(r.dsts.Get(f.Dst.ID()).dl, now) {
					continue
				}
				f.Outcome = transport.OutcomeStalled
			}
			clear(live[n:])
			live = live[:n]
		})
	}
}

// stallWindow is the watchdog window in virtual time.
func (r *run) stallWindow() sim.Time { return DefaultStallRTTs * r.ls.RTT() }

// lastProgress is when f last moved: its last delivery, or its start.
func lastProgress(f *transport.Flow) sim.Time { return max(f.LastProgress, f.Start) }

// startAudit attaches the invariant auditors (see internal/audit):
// per-shard checks every metrics interval on the shard's own clock,
// plus — on sharded runs — a whole-network auditor carrying the
// cross-shard grant-budget ledger at every window barrier. Each panics
// with a forensic dump on the first violation.
func (r *run) startAudit() {
	if !r.Audit {
		return
	}
	interval := MetricsIntervalOrDefault(r.MetricsInterval)
	start := func(aud *audit.Auditor, eng *sim.Engine) {
		r.audits = append(r.audits, aud)
		r.every(eng, subAudit, interval, interval, func(sim.Time) { aud.Check() })
	}
	if len(r.shards) == 1 {
		start(audit.New(r.ls.Net, r.insts[0]), r.ls.Net.Engine)
		return
	}
	for s, sh := range r.shards {
		start(audit.NewShard(sh, r.insts[s]), sh.Eng())
	}
	gaud := audit.New(r.ls.Net, globalAuditStack(r.insts, r.all))
	r.audits = append(r.audits, gaud)
	r.ls.Net.BarrierHook = func() { gaud.Check() }
}

// startMetrics publishes the run's own counters and starts each
// shard's sampling ticker, whose first sample is at the run's start.
func (r *run) startMetrics() {
	if r.Metrics == nil {
		return
	}
	for s := range r.shards {
		s := s
		r.parts[s].CounterFunc("experiment.flows_stalled", func() int64 {
			return countOutcome(r.insts[s], s, transport.OutcomeStalled)
		})
		r.parts[s].CounterFunc("experiment.flows_killed_by_crash", func() int64 {
			return countOutcome(r.insts[s], s, transport.OutcomeKilledByCrash)
		})
	}
	interval := MetricsIntervalOrDefault(r.MetricsInterval)
	for s, sh := range r.shards {
		eng, reg := sh.Eng(), r.parts[s]
		reg.Begin(eng.Now(), interval)
		r.every(eng, subMetrics, eng.Now(), interval, reg.Sample)
	}
}

// execute runs the network to the horizon and the auditors' final sweep.
func (r *run) execute() {
	if r.Interrupt != nil {
		for _, sh := range r.shards {
			sh.Eng().SetInterrupt(0, r.Interrupt)
		}
	}
	r.ls.Net.Run(r.horizon)
	r.ls.Net.BarrierHook = nil
	for _, aud := range r.audits {
		aud.Check() // final end-of-run sweep
		r.res.AuditChecks += aud.Checks
		r.res.AuditViolations += aud.Violations
	}
}

// collect merges the per-shard slices into the result.
func (r *run) collect() RunResult {
	res := &r.res
	if r.Trace != nil {
		r.Trace.Absorb(r.recs...)
	}
	if r.Metrics != nil {
		res.Metrics = r.Metrics
		if len(r.shards) > 1 {
			res.Metrics = metrics.Merged(r.parts...)
		}
	}
	// Final dispositions, in spec order for determinism. Dependents
	// whose parent never completed were never released; they are
	// incomplete by definition (and missed deadlines if they carry one).
	for i, fs := range r.Flows {
		f := r.all[i]
		if f.Unresponsive {
			continue
		}
		if fs.After != 0 && !f.Released {
			o := FlowOutcome{
				ID: f.ID, Outcome: transport.OutcomeRunning,
				Diagnosis: fmt.Sprintf("never released: flow %d did not complete", fs.After),
			}
			if fs.Deadline > 0 {
				res.DeadlineTotal++
				res.DeadlineMissed++
				o.MissedDeadline = true
			}
			res.Outcomes = append(res.Outcomes, o)
			continue
		}
		o := FlowOutcome{ID: f.ID, Outcome: f.Outcome, LastProgress: f.LastProgress}
		switch f.Outcome {
		case transport.OutcomeCompleted:
			res.LastEnd = max(res.LastEnd, f.End)
		case transport.OutcomeStalled:
			// Progress would have cleared the report, so the flow last
			// moved when the watchdog said it did.
			o.Diagnosis = fmt.Sprintf(
				"no data progress since %v (stall window %v = %d RTTs) with both access links up",
				lastProgress(f), r.stallWindow(), DefaultStallRTTs)
			res.Stalled++
		case transport.OutcomeKilledByCrash:
			o.Diagnosis = "endpoint crashed before completion"
			res.Killed++
		case transport.OutcomeRunning:
			o.Diagnosis = fmt.Sprintf("incomplete at horizon (last progress %v)", f.LastProgress)
		}
		if fs.Deadline > 0 {
			res.DeadlineTotal++
			if !f.Done || f.End > fs.Deadline {
				res.DeadlineMissed++
				o.MissedDeadline = true
			}
		}
		res.Outcomes = append(res.Outcomes, o)
	}

	// The canonical merge runs at every shard count, so the one
	// floating-point fold order backs all reported statistics.
	col := stats.Merge(r.cols...)
	res.Collector = col
	res.Completed = col.Count()
	res.AFCT = col.Mean()
	res.P99 = col.P99()
	res.Drops = r.ls.Net.Dropped()
	total, late := r.ls.Net.Executed()
	res.Events = total - late

	// Host-index iteration fixes the floating-point utilization fold.
	var payloadSum, capSum float64
	for _, h := range r.ls.Hosts {
		d := r.dsts.Get(h.ID())
		if d == nil {
			continue
		}
		res.MaxQueue = max(res.MaxQueue, d.mon.MaxQueueLen)
		busy := backloggedTime(d.flows, r.horizon)
		if busy <= 0 {
			continue
		}
		capBytes := float64(r.ls.AccessRate.BytesIn(busy))
		if capBytes <= 0 {
			continue
		}
		payloadSum += min(float64(d.payload), capBytes)
		capSum += capBytes
	}
	if capSum > 0 {
		res.Utilization = payloadSum / capSum
	}
	for _, sw := range r.ls.Switches {
		res.Trims += trimCount(sw)
	}
	return *res
}

// shardAssignment maps every node (the slice is indexed by node ID) to
// an engine shard: ToRs — the unique owners of the host downlinks, in
// first-appearance order — round-robin across shards, hosts ride with
// their ToR (keeping the dense host↔access-switch traffic intra-shard),
// and the remaining fabric switches round-robin over the shards in
// creation order. The assignment affects only wall-clock performance,
// never results.
func shardAssignment(ls *topo.Fabric, nshards int) []int {
	am := make([]int, len(ls.Net.Hosts())+len(ls.Net.Switches()))
	for i := range am {
		am[i] = -1
	}
	tors := 0
	for _, dl := range ls.HostDownlinks {
		if sw := dl.Owner(); am[sw.ID()] < 0 {
			am[sw.ID()] = tors % nshards
			tors++
		}
	}
	for i, h := range ls.Hosts {
		am[h.ID()] = am[ls.HostDownlinks[i].Owner().ID()]
	}
	rr := 0
	for _, sw := range ls.Switches {
		if am[sw.ID()] < 0 {
			am[sw.ID()] = rr % nshards
			rr++
		}
	}
	return am
}

// flowsView gives the whole-network auditor's forensic dump the global
// flow list (per-shard instances each hold only their slice).
type flowsView struct{ flows []*transport.Flow }

// OrderedFlows implements audit.FlowLister.
func (v flowsView) OrderedFlows() []*transport.Flow { return v.flows }

// ledgerView additionally sums the per-shard instances' grant ledgers:
// senders spend on source shards, receivers grant on home shards, so
// only the cross-shard sum is invariant.
type ledgerView struct {
	flowsView
	insts []Instance
}

// DataPacketsSent implements audit.GrantAccounting.
func (v ledgerView) DataPacketsSent() int64 {
	var t int64
	for _, in := range v.insts {
		t += in.(audit.GrantAccounting).DataPacketsSent()
	}
	return t
}

// GrantAuthority implements audit.GrantAccounting.
func (v ledgerView) GrantAuthority() int64 {
	var t int64
	for _, in := range v.insts {
		t += in.(audit.GrantAccounting).GrantAuthority()
	}
	return t
}

// globalAuditStack builds the stack object backing the whole-network
// auditor of a sharded run: the global flow list, plus the summed grant
// ledger when every shard instance exposes one (stacks without
// GrantAccounting — DCTCP — skip invariant 4 exactly as they do on a
// single shard).
func globalAuditStack(insts []Instance, flows []*transport.Flow) any {
	for _, in := range insts {
		if _, ok := in.(audit.GrantAccounting); !ok {
			return flowsView{flows}
		}
	}
	return ledgerView{flowsView{flows}, insts}
}

// DefaultStallRTTs is the flow-liveness watchdog window in base RTTs: a
// live flow with no data progress for this long, while both its access
// links are administratively up, is reported Stalled. 128 is double the
// 64×RTT cap on the protocols' recovery backoff, so a flow is only
// called stalled once every built-in recovery mechanism has had its
// chance.
const DefaultStallRTTs = 128

// countOutcome counts responsive flows homed on the given shard that
// are currently in the given state. The home filter makes the per-shard
// counters sum to the global figure (a cross-shard flow is listed by
// both its sender's and its receiver's instance).
func countOutcome(inst Instance, shard int, o transport.Outcome) int64 {
	var n int64
	for _, f := range inst.OrderedFlows() {
		if int(f.Home) == shard && !f.Unresponsive && f.Outcome == o {
			n++
		}
	}
	return n
}

// backloggedTime returns the total length of the union of the flows'
// active intervals [Start, End) (End = horizon for incomplete flows).
func backloggedTime(flows []*transport.Flow, horizon sim.Time) sim.Time {
	if len(flows) == 0 {
		return 0
	}
	type iv struct{ s, e sim.Time }
	ivs := make([]iv, 0, len(flows))
	for _, f := range flows {
		end := horizon
		if f.Done {
			end = f.End
		}
		if end > f.Start {
			ivs = append(ivs, iv{f.Start, end})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var total, curS, curE sim.Time
	started := false
	for _, x := range ivs {
		if !started {
			curS, curE, started = x.s, x.e, true
			continue
		}
		if x.s <= curE {
			if x.e > curE {
				curE = x.e
			}
			continue
		}
		total += curE - curS
		curS, curE = x.s, x.e
	}
	if started {
		total += curE - curS
	}
	return total
}

func trimCount(sw *netsim.Switch) int64 {
	var n int64
	for _, p := range sw.Ports() {
		q := p.Queue()
		// Peel off loss-injection wrappers to reach the trimming queue.
	unwrap:
		for {
			switch w := q.(type) {
			case *netsim.LossyQueue:
				q = w.Inner
			case *netsim.GilbertElliottQueue:
				q = w.Inner
			default:
				break unwrap
			}
		}
		if tq, ok := q.(*netsim.TrimmingQueue); ok {
			n += tq.Trims
		}
	}
	return n
}
