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

	// StallRTTs is the flow-liveness watchdog window in base RTTs: a
	// live flow with no data progress for this long, while both its
	// access links are administratively up, is reported Stalled (a late
	// completion clears the report). Default 128 — deliberately above
	// the protocols' 64×RTT recovery-backoff cap, so a flow is only
	// called stalled once every built-in recovery mechanism has had its
	// chance. Negative disables the watchdog.
	StallRTTs int
}

// Late-band sub-keys the runner schedules its per-shard observers under:
// observer slots of the sim.SubObserver partition, above every fault
// action of the same instant. metrics.StartUntil owns slot 1; (time,
// sub) pairs must stay unique per engine.
const (
	subWatchdog = sim.SubObserver | 2
	subAudit    = sim.SubObserver | 3
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
	ov := topo.Overlay{
		HostQueue:   r.Stack.HostQueue,
		SwitchQueue: r.Stack.SwitchQueue,
		Marker:      r.Stack.Marker,
	}
	if r.Faults != nil {
		ov.SwitchQueue = r.Faults.WrapQueues(ov.SwitchQueue)
	}
	ls := r.Topo.Build(ov)

	nshards := r.Shards
	if nshards <= 0 {
		nshards = 1
	}
	horizon := r.Horizon
	if horizon == 0 {
		horizon = sim.Forever
	}
	var assignment map[netsim.NodeID]int
	if nshards > 1 {
		if horizon == sim.Forever {
			return RunResult{}, fmt.Errorf("experiment: sharded runs require a finite Horizon")
		}
		assignment = shardAssignment(ls, nshards)
		ls.Net.Partition(nshards, func(n netsim.Node) int { return assignment[n.ID()] })
	}
	shards := ls.Net.Shards()
	la := ls.Net.Lookahead()
	idxOf := func(n netsim.Node) int {
		if assignment == nil {
			return 0
		}
		return assignment[n.ID()]
	}

	// Per-destination state for the utilization metric: delivered
	// payload bytes and the flows targeting it (for backlogged-interval
	// computation after the run). The downlink port doubles as the
	// watchdog's receiver-side admin-state probe. The map is fully built
	// during setup and only read during the run; the per-entry fields
	// are written exclusively by the destination's home shard.
	type dstState struct {
		mon     *netsim.PortMonitor
		dl      *netsim.Port
		payload int64
		flows   []*transport.Flow
	}
	dsts := map[netsim.NodeID]*dstState{}

	res := RunResult{Stack: r.Stack.Name, Total: len(r.Flows)}

	// Per-shard slices of the run's mutable results; merged after the
	// run. Index s belongs to shard s's goroutine while windows execute.
	cols := make([]*stats.FCTCollector, nshards)
	lastEnd := make([]sim.Time, nshards)
	parts := make([]*metrics.Registry, nshards)
	recs := make([]*trace.Recorder, nshards)
	bases := make([]transport.Config, nshards)
	insts := make([]Instance, nshards)
	stallDiags := make([]map[netsim.FlowID]string, nshards)
	for s := 0; s < nshards; s++ {
		cols[s] = stats.NewFCTCollector()
		stallDiags[s] = map[netsim.FlowID]string{}
	}
	if r.Metrics != nil {
		parts[0] = r.Metrics
		for s := 1; s < nshards; s++ {
			parts[s] = metrics.NewRegistry()
		}
	}
	if r.Trace != nil {
		recs[0] = r.Trace
		for s := 1; s < nshards; s++ {
			recs[s] = &trace.Recorder{MaxEvents: r.Trace.MaxEvents}
		}
	}

	// Dependent flows (workload.FlowSpec.After): pre-created without a
	// start, released when their parent completes, so request/response
	// loops are closed-loop. deps is keyed by parent ID, fully built at
	// setup and read-only during the run (the release path may run on
	// any shard).
	type depChild struct {
		flow            *transport.Flow
		offset          sim.Time // spec Start: delay after the parent's End
		srcIdx, homeIdx int
	}
	deps := map[netsim.FlowID][]depChild{}
	deadlines := map[netsim.FlowID]sim.Time{}

	for s := 0; s < nshards; s++ {
		s := s
		bases[s] = transport.Config{
			RTT:       ls.RTT(),
			Shard:     shards[s],
			Collector: cols[s],
			Metrics:   parts[s],
			OnDone: func(f *transport.Flow) {
				if f.End > lastEnd[s] {
					lastEnd[s] = f.End
				}
				for _, dc := range deps[f.ID] {
					dc := dc
					// The release handshake crosses shards through the
					// deterministic signal channel: one signal starts the
					// child on its source shard, one marks it released on
					// its home shard. Both signals take exactly one
					// lookahead at every shard count — including one — so
					// the child's start time is partition-independent.
					start := f.End + dc.offset
					if min := f.End + la; start < min {
						start = min
					}
					child := dc.flow
					sh := shards[s]
					sh.Signal(f.Dst, child.Src, func() {
						insts[dc.srcIdx].Release(child, start)
					})
					sh.Signal(f.Dst, child.Dst, func() {
						child.Released = true
						child.Start = start
						if !child.Unresponsive {
							if d := dsts[child.Dst.ID()]; d != nil {
								d.flows = append(d.flows, child)
							}
						}
						if recs[dc.homeIdx] != nil {
							recs[dc.homeIdx].RecordStart(child)
						}
					})
				}
			},
			OnData: func(f *transport.Flow, pkt *netsim.Packet) {
				if d := dsts[f.Dst.ID()]; d != nil {
					d.payload += int64(pkt.Size)
				}
			},
		}
		if recs[s] != nil {
			recs[s].AttachShard(shards[s], &bases[s])
		}
	}
	if r.Metrics != nil {
		for s := 0; s < nshards; s++ {
			shards[s].RegisterMetrics(parts[s])
		}
	}
	for s := 0; s < nshards; s++ {
		insts[s] = r.Stack.New(ls.Net, bases[s])
	}

	// Flow registration: every flow — dependents included — is created
	// up front in spec order, its sender side on its source's shard
	// instance and its receiver side adopted by its destination's.
	allFlows := make([]*transport.Flow, len(r.Flows))
	for i, fs := range r.Flows {
		src, dst := ls.Hosts[fs.Src], ls.Hosts[fs.Dst]
		si, di := idxOf(src), idxOf(dst)
		d := dsts[dst.ID()]
		if d == nil {
			// RegisterMetrics attaches (or reuses) the monitor and, with
			// a registry, publishes the downlink's telemetry series on
			// the owning shard. Spec order makes the registration order
			// deterministic.
			dl := ls.Downlink(fs.Dst)
			d = &dstState{mon: dl.RegisterMetrics(parts[di]), dl: dl}
			dsts[dst.ID()] = d
		}
		// Every flow takes the split-registration path — AddPending on the
		// source shard, Adopt on the home shard — even when both are the
		// same instance, so no later flow's source-side install can stomp
		// a host handler another instance owns.
		f := insts[si].AddPending(fs.ID, src, dst, fs.Size, fs.Unresponsive)
		insts[di].Adopt(f)
		if fs.Unresponsive {
			res.Total-- // can never complete; exclude from the target
		}
		if fs.After != 0 {
			deps[fs.After] = append(deps[fs.After], depChild{flow: f, offset: fs.Start, srcIdx: si, homeIdx: di})
			// Destination bookkeeping and the trace start record wait for
			// the release signal, like the injection itself.
		} else {
			f.Released = true
			f.Start = fs.Start
			insts[si].Release(f, fs.Start)
			if !fs.Unresponsive {
				d.flows = append(d.flows, f)
			}
			if recs[di] != nil {
				recs[di].RecordStart(f)
			}
		}
		f.Home = int32(di)
		allFlows[i] = f
		if fs.Deadline > 0 && !fs.Unresponsive {
			deadlines[fs.ID] = fs.Deadline
		}
	}

	if r.Faults != nil {
		// Node-fault hook: each shard's stack instance drops the slice of
		// the crashed host's state it owns, at the instant the fault layer
		// parks the host's links. The fault layer fires the hook once per
		// shard, on that shard's engine.
		r.Faults.CrashHook = func(sh *netsim.Shard, h *netsim.Host) {
			insts[sh.Index()].OnHostCrash(h)
		}
		if err := r.Faults.Apply(ls.Net, horizon); err != nil {
			return RunResult{}, err
		}
		r.Faults.RegisterMetrics(parts[0])
	}

	// anyLive gates the self-rescheduling observer ticks on open-ended
	// (Horizon == 0, necessarily single-shard) runs so they terminate
	// once every responsive flow is done; dependents awaiting release
	// are not Done, so they keep the ticks alive too. Finite-horizon
	// runs instead tick to the horizon unconditionally — a pure function
	// of (interval, horizon), identical at every shard count.
	anyLive := func() bool {
		for _, f := range allFlows {
			if !f.Done && !f.Unresponsive {
				return true
			}
		}
		return false
	}
	// reschedule continues an observer tick chain in the late band.
	reschedule := func(eng *sim.Engine, sub uint64, interval sim.Time, tick func()) {
		next := eng.Now() + interval
		if horizon == sim.Forever {
			if anyLive() {
				eng.ScheduleLate(next, sub, tick)
			}
			return
		}
		if next <= horizon {
			eng.ScheduleLate(next, sub, tick)
		}
	}

	// Flow-liveness watchdog: no data progress for StallRTTs base RTTs
	// while both access links are administratively up → Stalled (a late
	// completion, or resumed progress, clears the report). One tick
	// chain per shard, each inspecting only the flows homed there; the
	// access-link admin probes consult the fault plan's AdminDown oracle
	// — a pure function of the plan, safe from any shard — instead of
	// reading another shard's live port state.
	stallRTTs := r.StallRTTs
	if stallRTTs == 0 {
		stallRTTs = DefaultStallRTTs
	}
	if stallRTTs > 0 {
		window := sim.Time(stallRTTs) * ls.RTT()
		for s := 0; s < nshards; s++ {
			s := s
			eng := shards[s].Eng()
			// live is the shard's watch list: the responsive flows homed
			// here, in creation order, compacted in place as they finish so
			// a tick walks what can still stall, not every flow of the run.
			live := slices.DeleteFunc(slices.Clone(insts[s].OrderedFlows()), func(f *transport.Flow) bool {
				return int(f.Home) != s || f.Unresponsive
			})
			var tick func()
			tick = func() {
				now := eng.Now()
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
					last := f.LastProgress
					if last < f.Start {
						last = f.Start
					}
					if now-last < window {
						continue
					}
					// A parked access link explains the silence: that flow is
					// a fault casualty, not a liveness bug.
					if r.Faults.AdminDown(f.Src.NIC(), now) {
						continue
					}
					if d := dsts[f.Dst.ID()]; d != nil && r.Faults.AdminDown(d.dl, now) {
						continue
					}
					f.Outcome = transport.OutcomeStalled
					stallDiags[s][f.ID] = fmt.Sprintf(
						"no data progress since %v (stall window %v = %d RTTs) with both access links up",
						last, window, stallRTTs)
				}
				clear(live[n:])
				live = live[:n]
				reschedule(eng, subWatchdog, window/4, tick)
			}
			eng.ScheduleLate(window/4, subWatchdog, tick)
		}
	}

	// Invariant auditors (see internal/audit): per-shard checks every
	// metrics interval on the shard's own clock, plus — on sharded runs
	// — a whole-network auditor carrying the cross-shard grant-budget
	// ledger at every window barrier. Each panics with a forensic dump
	// on the first violation.
	var audits []*audit.Auditor
	if r.Audit {
		interval := MetricsIntervalOrDefault(r.MetricsInterval)
		startTick := func(aud *audit.Auditor, eng *sim.Engine) {
			var tick func()
			tick = func() {
				aud.Check()
				reschedule(eng, subAudit, interval, tick)
			}
			eng.ScheduleLate(interval, subAudit, tick)
		}
		if nshards == 1 {
			aud := audit.New(ls.Net, insts[0])
			audits = append(audits, aud)
			startTick(aud, ls.Net.Engine)
		} else {
			for s := 0; s < nshards; s++ {
				aud := audit.NewShard(shards[s], insts[s])
				audits = append(audits, aud)
				startTick(aud, shards[s].Eng())
			}
			gaud := audit.New(ls.Net, globalAuditStack(insts, allFlows))
			audits = append(audits, gaud)
			ls.Net.BarrierHook = func() { gaud.Check() }
		}
	}

	if r.Metrics != nil {
		for s := 0; s < nshards; s++ {
			s := s
			parts[s].CounterFunc("experiment.flows_stalled", func() int64 {
				return countOutcome(insts[s], s, transport.OutcomeStalled)
			})
			parts[s].CounterFunc("experiment.flows_killed_by_crash", func() int64 {
				return countOutcome(insts[s], s, transport.OutcomeKilledByCrash)
			})
		}
		interval := MetricsIntervalOrDefault(r.MetricsInterval)
		if horizon == sim.Forever {
			// Open-ended runs are single-shard; the legacy ticker stops on
			// the queue-drain heuristic.
			r.Metrics.Start(ls.Net.Engine, interval)
		} else {
			for s := 0; s < nshards; s++ {
				parts[s].StartUntil(shards[s].Eng(), interval, horizon)
			}
		}
	}
	if r.Interrupt != nil {
		for s := 0; s < nshards; s++ {
			shards[s].Eng().SetInterrupt(0, r.Interrupt)
		}
	}
	ls.Net.Run(horizon)
	ls.Net.BarrierHook = nil
	if len(audits) > 0 {
		for _, aud := range audits {
			aud.Check() // final end-of-run sweep
			res.AuditChecks += aud.Checks
			res.AuditViolations += aud.Violations
		}
	}

	if r.Trace != nil {
		r.Trace.Absorb(recs...)
	}
	if r.Metrics != nil {
		if nshards == 1 {
			res.Metrics = r.Metrics
		} else {
			res.Metrics = metrics.Merged(parts...)
		}
	}
	for _, e := range lastEnd {
		if e > res.LastEnd {
			res.LastEnd = e
		}
	}

	// Final dispositions, in spec order for determinism. Dependents
	// whose parent never completed were never released; they are
	// incomplete by definition (and missed deadlines if they carry one).
	for i, fs := range r.Flows {
		f := allFlows[i]
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
		case transport.OutcomeStalled:
			o.Diagnosis = stallDiags[f.Home][f.ID]
			res.Stalled++
		case transport.OutcomeKilledByCrash:
			o.Diagnosis = "endpoint crashed before completion"
			res.Killed++
		case transport.OutcomeRunning:
			o.Diagnosis = fmt.Sprintf("incomplete at horizon (last progress %v)", f.LastProgress)
		}
		if dl, ok := deadlines[f.ID]; ok {
			res.DeadlineTotal++
			if !f.Done || f.End > dl {
				res.DeadlineMissed++
				o.MissedDeadline = true
			}
		}
		res.Outcomes = append(res.Outcomes, o)
	}

	// The canonical merge runs at every shard count, so the one
	// floating-point fold order backs all reported statistics.
	col := stats.Merge(cols...)
	res.Collector = col
	res.Completed = col.Count()
	res.AFCT = col.Mean()
	res.P99 = col.P99()
	res.Drops = ls.Net.Dropped()
	total, late := ls.Net.Executed()
	res.Events = total - late

	// Host-index iteration keeps the floating-point utilization fold
	// deterministic (map order is not).
	var payloadSum, capSum float64
	for hi := range ls.Hosts {
		d := dsts[ls.Hosts[hi].ID()]
		if d == nil {
			continue
		}
		if d.mon.MaxQueueLen > res.MaxQueue {
			res.MaxQueue = d.mon.MaxQueueLen
		}
		busy := backloggedTime(d.flows, horizon)
		if busy <= 0 {
			continue
		}
		capBytes := float64(ls.AccessRate.BytesIn(busy))
		if capBytes <= 0 {
			continue
		}
		pay := float64(d.payload)
		if pay > capBytes {
			pay = capBytes
		}
		payloadSum += pay
		capSum += capBytes
	}
	if capSum > 0 {
		res.Utilization = payloadSum / capSum
	}
	for _, sw := range ls.Switches {
		res.Trims += trimCount(sw)
	}
	return res, nil
}

// shardAssignment maps every node to an engine shard: ToRs — the unique
// owners of the host downlinks, in first-appearance order — round-robin
// across shards, hosts ride with their ToR (keeping the dense
// host↔access-switch traffic intra-shard), and the remaining fabric
// switches round-robin over the shards in creation order. The
// assignment affects only wall-clock performance, never results.
func shardAssignment(ls *topo.Fabric, nshards int) map[netsim.NodeID]int {
	am := make(map[netsim.NodeID]int)
	tors := 0
	for _, dl := range ls.HostDownlinks {
		sw := dl.Owner()
		if _, ok := am[sw.ID()]; !ok {
			am[sw.ID()] = tors % nshards
			tors++
		}
	}
	for i, h := range ls.Hosts {
		am[h.ID()] = am[ls.HostDownlinks[i].Owner().ID()]
	}
	rr := 0
	for _, sw := range ls.Switches {
		if _, ok := am[sw.ID()]; ok {
			continue
		}
		am[sw.ID()] = rr % nshards
		rr++
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

// DefaultStallRTTs is the watchdog window applied when StallRTTs is
// zero: 128 base RTTs, double the 64×RTT cap on the protocols'
// recovery backoff so built-in recovery always gets to act first.
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
