package experiment

import (
	"bytes"
	"strings"
	"testing"

	"amrt/internal/audit"
	"amrt/internal/faults"
	"amrt/internal/metrics"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
	"amrt/internal/workload"
)

// chaosProtocols is the full matrix: the four receiver-driven stacks
// plus the DCTCP baseline. Fault tolerance is a correctness property
// for all of them.
func chaosProtocols() []string {
	return StackNames()
}

// runFanChaos drives one protocol through a 4-pair fan scenario under
// the given fault spec with the invariant auditor attached (panic on
// violation) and fails the test if any flow stalls — crash-killed flows
// count as terminated, not stalled. It returns the scenario (for
// queue-counter scans), the applied plan (for event-counter checks),
// and the flows (for outcome assertions).
func runFanChaos(t *testing.T, proto, spec string) (*topo.Scenario, *faults.Plan, []*transport.Flow) {
	t.Helper()
	plan := faults.MustParse(spec)
	if plan.Seed == 0 {
		plan.Seed = 1
	}
	st := MustStack(proto, StackOptions{})
	st.SwitchQueue = plan.WrapQueues(st.SwitchQueue)
	h := NewScenarioHarness(st, topo.DefaultScenario(), fanN(4), transport.Config{}, 1, 0, nil)
	s, inst := h.S, h.insts[0]
	for i := 0; i < 4; i++ {
		h.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[i], 1_000_000, sim.Time(i)*20*sim.Microsecond)
	}
	flows := h.Flows()
	const horizon = 20 * sim.Second
	plan.CrashHook = func(_ *netsim.Shard, h *netsim.Host) { inst.OnHostCrash(h) }
	if err := plan.Apply(s.Net, horizon); err != nil {
		t.Fatal(err)
	}
	aud := audit.New(s.Net, inst)
	s.Net.Engine.Every(100*sim.Microsecond, 100*sim.Microsecond, horizon, subAudit, func() bool {
		aud.Check()
		return true
	})
	h.Run(horizon)
	aud.Check() // end-of-run sweep; panics with a forensic dump on violation
	for _, f := range flows {
		if !f.Done {
			t.Fatalf("%s: %v stalled under faults %q", proto, f, spec)
		}
	}
	return s, plan, flows
}

// TestChaosLinkFlapMidTransfer pulls the fan bottleneck cable (both
// directions) for 2.5ms in the middle of every transfer. Data and
// control in flight during the outage are lost or parked; every
// protocol must detect the stall and finish after the link returns.
func TestChaosLinkFlapMidTransfer(t *testing.T) {
	for _, proto := range chaosProtocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			_, plan, _ := runFanChaos(t, proto, "link=swA->swB,down=500us,up=3ms")
			if plan.LinkDownEvents != 1 || plan.LinkUpEvents != 1 {
				t.Errorf("flap events = %d down / %d up, want 1/1", plan.LinkDownEvents, plan.LinkUpEvents)
			}
		})
	}
}

// TestAllProtocolsSurviveControlLoss lifts the historical
// control-packet sparing: 1% of grants, tokens, pulls, ACKs, NACKs and
// RTSes die at every switch hop. Receiver-driven transports schedule
// every data packet with a control packet, so this is the fault class
// they are most sensitive to — a lost RTS or a lost pull must never
// strand a flow.
func TestAllProtocolsSurviveControlLoss(t *testing.T) {
	for _, proto := range chaosProtocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			s, _, _ := runFanChaos(t, proto, "ctrl-loss=0.01")
			var ctrl int64
			for _, sw := range s.Switches {
				for _, pt := range sw.Ports() {
					if lq, ok := pt.Queue().(*netsim.LossyQueue); ok {
						ctrl += lq.CtrlInjected
					}
				}
			}
			if ctrl == 0 {
				t.Error("control-packet loss did not fire")
			}
		})
	}
}

// TestChaosBurstyLoss replaces independent loss with Gilbert–Elliott
// bursts: runs of consecutive data drops (mean 5 packets, ~1.5% of
// arrivals in the bad state) rather than scattered holes. Burst
// recovery stresses retransmission paths that tolerate isolated loss.
func TestChaosBurstyLoss(t *testing.T) {
	for _, proto := range chaosProtocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			s, _, _ := runFanChaos(t, proto, "burst-loss=tobad:0.003,togood:0.2,bad:0.5")
			var injected, bursts int64
			for _, sw := range s.Switches {
				for _, pt := range sw.Ports() {
					if ge, ok := pt.Queue().(*netsim.GilbertElliottQueue); ok {
						injected += ge.Injected
						bursts += ge.Bursts
					}
				}
			}
			if injected == 0 || bursts == 0 {
				t.Errorf("burst loss did not fire: %d drops in %d bursts", injected, bursts)
			}
		})
	}
}

// TestChaosDegradedLink renegotiates the bottleneck down to 10% of
// nominal for 2.5ms mid-transfer. Nothing is lost — the link is just
// suddenly 10× slower — so this catches protocols that confuse
// slowness with loss and protocols whose timers spiral under a
// persistent-but-alive path.
func TestChaosDegradedLink(t *testing.T) {
	for _, proto := range chaosProtocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			_, plan, _ := runFanChaos(t, proto, "degrade=swA->swB,at=500us,until=3ms,factor=0.1")
			if plan.DegradeEvents != 1 {
				t.Errorf("DegradeEvents = %d, want 1", plan.DegradeEvents)
			}
		})
	}
}

// TestChaosECMPFailoverLeafSpine exercises the full runner wiring: a
// leaf uplink flaps on a 2×2 fabric under Poisson traffic, forcing
// leaf0's ECMP to re-route flows pinned to spine0 onto spine1 and the
// protocols to repair whatever was in flight on the dead path.
func TestChaosECMPFailoverLeafSpine(t *testing.T) {
	cfg := topo.DefaultLeafSpine()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 4
	for _, proto := range chaosProtocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			flows := workload.GeneratePoisson(workload.PoissonConfig{
				Hosts:    cfg.Hosts(),
				Load:     0.5,
				HostRate: cfg.HostRate,
				Dist:     workload.WebSearch(),
				Count:    60,
				Seed:     3,
			})
			plan := faults.MustParse("link=leaf0->spine0,down=200us,up=5ms")
			plan.Seed = 3
			res := LeafSpineRun{
				Topo:    cfg,
				Stack:   MustStack(proto, StackOptions{}),
				Flows:   flows,
				Horizon: 20 * sim.Second,
				Faults:  plan,
			}.Run()
			if res.Completed != res.Total {
				t.Fatalf("%s: %d/%d flows completed across the uplink flap", proto, res.Completed, res.Total)
			}
			if plan.LinkDownEvents != 1 || plan.LinkUpEvents != 1 {
				t.Errorf("flap events = %d down / %d up, want 1/1", plan.LinkDownEvents, plan.LinkUpEvents)
			}
		})
	}
}

// TestChaosMetricsDeterminism extends the telemetry determinism
// contract to fault injection: the same seed and the same fault plan —
// a periodic uplink flap plus independent data and control loss — must
// reproduce byte-identical metrics dumps, fault counters included.
func TestChaosMetricsDeterminism(t *testing.T) {
	const spec = "link=leaf0->spine1,down=300us,up=2ms,period=5ms;ctrl-loss=0.005;data-loss=0.005"
	run := func() (json, csv string) {
		cfg := topo.DefaultLeafSpine()
		cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 4
		flows := workload.GeneratePoisson(workload.PoissonConfig{
			Hosts:    cfg.Hosts(),
			Load:     0.6,
			HostRate: cfg.HostRate,
			Dist:     workload.WebSearch(),
			Count:    120,
			Seed:     7,
		})
		plan := faults.MustParse(spec)
		plan.Seed = 7
		reg := metrics.NewRegistry()
		LeafSpineRun{
			Topo:    cfg,
			Stack:   MustStack("AMRT", StackOptions{}),
			Flows:   flows,
			Horizon: 5 * sim.Second,
			Metrics: reg,
			Faults:  plan,
		}.Run()
		var j, c bytes.Buffer
		if err := reg.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := run()
	j2, c2 := run()
	if j1 != j2 {
		t.Fatal("metrics JSON differs between identical fault runs")
	}
	if c1 != c2 {
		t.Fatal("metrics CSV differs between identical fault runs")
	}
	for _, want := range []string{
		"faults.link_down_events",
		"faults.link_up_events",
		"faults.degrade_events",
		"net.no_route_drops",
		"admin_up",
	} {
		if !strings.Contains(j1, want) {
			t.Errorf("fault run dump missing %q", want)
		}
	}
}

// TestChaosHostCrashSemantics is the node-fault contract, per protocol:
// crashing a *sender* mid-transfer kills its flow (pacer and retransmit
// state are unrecoverable) while every other flow completes; crashing a
// *receiver* loses the grant/bitmap state, but the flow must still
// complete after the restart — the sender re-announces and the rebuilt
// receiver re-grants the holes. DCTCP is the sender-driven contrast:
// it has no re-announce machinery, so either endpoint crash is fatal.
func TestChaosHostCrashSemantics(t *testing.T) {
	for _, proto := range chaosProtocols() {
		proto := proto
		t.Run(proto+"/sender", func(t *testing.T) {
			_, plan, flows := runFanChaos(t, proto, "crash=S1,at=500us,up=2ms")
			if plan.CrashEvents != 1 {
				t.Errorf("CrashEvents = %d, want 1", plan.CrashEvents)
			}
			for i, f := range flows {
				want := transport.OutcomeCompleted
				if i == 1 {
					want = transport.OutcomeKilledByCrash
				}
				if f.Outcome != want {
					t.Errorf("flow %d outcome = %v, want %v", f.ID, f.Outcome, want)
				}
			}
		})
		t.Run(proto+"/receiver", func(t *testing.T) {
			_, plan, flows := runFanChaos(t, proto, "crash=R2,at=500us,up=2ms")
			if plan.CrashEvents != 1 {
				t.Errorf("CrashEvents = %d, want 1", plan.CrashEvents)
			}
			for i, f := range flows {
				want := transport.OutcomeCompleted
				if i == 2 && proto == "DCTCP" {
					want = transport.OutcomeKilledByCrash
				}
				if f.Outcome != want {
					t.Errorf("flow %d outcome = %v, want %v", f.ID, f.Outcome, want)
				}
			}
		})
	}
}

// TestChaosNodeFaultMatrix is the full node-fault chaos matrix: every
// protocol runs Poisson traffic on a 2×2 leaf-spine fabric while a host
// crashes and restarts, a leaf switch reboots (flushing every queue on
// it), and the fabric's ECMP salt rotates mid-run — all with the
// invariant auditor on. Every flow must end either completed or
// killed-by-crash — no stalls, no incompletes — with zero violations.
func TestChaosNodeFaultMatrix(t *testing.T) {
	cfg := topo.DefaultLeafSpine()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 4
	for _, proto := range chaosProtocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			flows := workload.GeneratePoisson(workload.PoissonConfig{
				Hosts:    cfg.Hosts(),
				Load:     0.5,
				HostRate: cfg.HostRate,
				Dist:     workload.WebSearch(),
				Count:    60,
				Seed:     3,
			})
			plan := faults.MustParse("crash=h0.1,at=2ms,up=6ms;reboot=leaf1,at=4ms,up=7ms;rehash=9ms")
			plan.Seed = 3
			res := LeafSpineRun{
				Topo:    cfg,
				Stack:   MustStack(proto, StackOptions{}),
				Flows:   flows,
				Horizon: 20 * sim.Second,
				Faults:  plan,
				Audit:   true,
			}.Run()
			if plan.CrashEvents != 1 || plan.RebootEvents != 1 || plan.RehashEvents != 1 {
				t.Errorf("fault events = %d crash / %d reboot / %d rehash, want 1/1/1",
					plan.CrashEvents, plan.RebootEvents, plan.RehashEvents)
			}
			if res.AuditChecks == 0 {
				t.Error("auditor never ran")
			}
			if res.AuditViolations != 0 {
				t.Errorf("auditor recorded %d violations", res.AuditViolations)
			}
			if res.Completed+res.Killed != res.Total {
				t.Errorf("%s: %d completed + %d killed != %d total (%d stalled)",
					proto, res.Completed, res.Killed, res.Total, res.Stalled)
			}
			for _, o := range res.Outcomes {
				if o.Outcome != transport.OutcomeCompleted && o.Outcome != transport.OutcomeKilledByCrash {
					t.Errorf("flow %d ended %v: %s", o.ID, o.Outcome, o.Diagnosis)
				}
			}
		})
	}
}

// TestChaosNodeFaultDeterminism pins the reproducibility contract for
// the node-fault machinery: the same seed and the same
// crash+reboot+rehash plan (with control loss on top, and the auditor
// on) must produce byte-identical metrics dumps, node-fault and outcome
// counters included.
func TestChaosNodeFaultDeterminism(t *testing.T) {
	const spec = "crash=h0.0,at=1ms,up=4ms;reboot=leaf1,at=2ms,up=5ms;rehash=3ms;ctrl-loss=0.005"
	run := func() (json, csv string) {
		cfg := topo.DefaultLeafSpine()
		cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 4
		flows := workload.GeneratePoisson(workload.PoissonConfig{
			Hosts:    cfg.Hosts(),
			Load:     0.6,
			HostRate: cfg.HostRate,
			Dist:     workload.WebSearch(),
			Count:    120,
			Seed:     7,
		})
		plan := faults.MustParse(spec)
		plan.Seed = 7
		reg := metrics.NewRegistry()
		LeafSpineRun{
			Topo:    cfg,
			Stack:   MustStack("AMRT", StackOptions{}),
			Flows:   flows,
			Horizon: 5 * sim.Second,
			Metrics: reg,
			Faults:  plan,
			Audit:   true,
		}.Run()
		var j, c bytes.Buffer
		if err := reg.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := run()
	j2, c2 := run()
	if j1 != j2 {
		t.Fatal("metrics JSON differs between identical node-fault runs")
	}
	if c1 != c2 {
		t.Fatal("metrics CSV differs between identical node-fault runs")
	}
	for _, want := range []string{
		"faults.crash_events",
		"faults.reboot_events",
		"faults.rehash_events",
		"experiment.flows_stalled",
		"experiment.flows_killed_by_crash",
	} {
		if !strings.Contains(j1, want) {
			t.Errorf("node-fault run dump missing %q", want)
		}
	}
}

// chaosFaultClasses enumerates one representative spec per fault class
// on the 2×2 leaf-spine fabric, with a plan-counter check where the
// class maintains one (the loss processes count on the wrapped queues
// instead, which TestAllProtocolsSurviveControlLoss and
// TestChaosBurstyLoss already scan).
func chaosFaultClasses() []struct {
	name  string
	spec  string
	check func(t *testing.T, p *faults.Plan)
} {
	return []struct {
		name  string
		spec  string
		check func(t *testing.T, p *faults.Plan)
	}{
		{"flap", "link=leaf0->spine0,down=2ms,up=5ms", func(t *testing.T, p *faults.Plan) {
			if p.LinkDownEvents != 1 || p.LinkUpEvents != 1 {
				t.Errorf("flap events = %d down / %d up, want 1/1", p.LinkDownEvents, p.LinkUpEvents)
			}
		}},
		{"degrade", "degrade=leaf1->spine1,at=1ms,until=6ms,factor=0.2", func(t *testing.T, p *faults.Plan) {
			if p.DegradeEvents != 1 {
				t.Errorf("DegradeEvents = %d, want 1", p.DegradeEvents)
			}
		}},
		{"ctrl-loss", "ctrl-loss=0.01", nil},
		{"burst", "burst-loss=tobad:0.003,togood:0.2,bad:0.5", nil},
		{"crash", "crash=h0.1,at=2ms,up=6ms", func(t *testing.T, p *faults.Plan) {
			if p.CrashEvents != 1 {
				t.Errorf("CrashEvents = %d, want 1", p.CrashEvents)
			}
		}},
		{"reboot", "reboot=leaf1,at=4ms,up=7ms", func(t *testing.T, p *faults.Plan) {
			if p.RebootEvents != 1 {
				t.Errorf("RebootEvents = %d, want 1", p.RebootEvents)
			}
		}},
		{"rehash", "rehash=9ms", func(t *testing.T, p *faults.Plan) {
			if p.RehashEvents != 1 {
				t.Errorf("RehashEvents = %d, want 1", p.RehashEvents)
			}
		}},
	}
}

// runShardedChaosCell runs one (protocol, fault-class, shard-count)
// cell of the sharded chaos matrix — Poisson traffic on a 2×2
// leaf-spine fabric with the invariant auditors attached (per-shard
// plus the whole-network BarrierHook auditor on partitioned runs) —
// and returns the applied plan, the run result, and the metrics dump
// for cross-shard-count comparison.
func runShardedChaosCell(t *testing.T, proto, spec string, nshards int) (*faults.Plan, RunResult, string) {
	t.Helper()
	cfg := topo.DefaultLeafSpine()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 4
	flows := workload.GeneratePoisson(workload.PoissonConfig{
		Hosts:    cfg.Hosts(),
		Load:     0.5,
		HostRate: cfg.HostRate,
		Dist:     workload.WebSearch(),
		Count:    60,
		Seed:     3,
	})
	plan := faults.MustParse(spec)
	plan.Seed = 3
	reg := metrics.NewRegistry()
	res, err := LeafSpineRun{
		Topo:    cfg,
		Stack:   MustStack(proto, StackOptions{}),
		Flows:   flows,
		Horizon: 50 * sim.Millisecond,
		Metrics: reg,
		Faults:  plan,
		Shards:  nshards,
		Audit:   true,
	}.RunE()
	if err != nil {
		t.Fatalf("%s/%s shards=%d: %v", proto, spec, nshards, err)
	}
	if res.AuditChecks == 0 {
		t.Errorf("%s/%s shards=%d: auditor never ran", proto, spec, nshards)
	}
	if res.AuditViolations != 0 {
		t.Errorf("%s/%s shards=%d: auditor recorded %d violations", proto, spec, nshards, res.AuditViolations)
	}
	// res.Metrics is the merged cross-shard view; the raw registry
	// holds per-shard partitions whose layout depends on the shard
	// count, so only the merged dump can be compared byte-for-byte.
	var j bytes.Buffer
	if err := res.Metrics.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	return plan, res, j.String()
}

// TestChaosShardedFaultMatrix is the sharded chaos matrix the v9 fault
// layer must sustain: every fault class × every protocol stack ×
// shards ∈ {1, 2, 4}, auditors attached and silent, with the metrics
// dump — fault counters, outcome counters, queue telemetry, the lot —
// byte-identical across shard counts within each (class, protocol)
// cell. The single-shard run is the reference; any divergence means a
// fault event was homed to the wrong shard or delivered outside the
// late-band plan order.
func TestChaosShardedFaultMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded chaos matrix is not short")
	}
	for _, class := range chaosFaultClasses() {
		class := class
		t.Run(class.name, func(t *testing.T) {
			for _, proto := range chaosProtocols() {
				proto := proto
				t.Run(proto, func(t *testing.T) {
					// The stacks of one class run side by side: a cell builds
					// its own network and plan and shares nothing.
					t.Parallel()
					refPlan, refRes, refDump := runShardedChaosCell(t, proto, class.spec, 1)
					if class.check != nil {
						class.check(t, refPlan)
					}
					for _, n := range []int{2, 4} {
						plan, res, dump := runShardedChaosCell(t, proto, class.spec, n)
						if class.check != nil {
							class.check(t, plan)
						}
						if dump != refDump {
							t.Errorf("%d-shard metrics dump differs from single-engine reference", n)
						}
						if res.Completed != refRes.Completed || res.Killed != refRes.Killed ||
							res.Stalled != refRes.Stalled || res.Events != refRes.Events {
							t.Errorf("%d-shard scalars (%d completed, %d killed, %d stalled, %d events) differ from reference (%d, %d, %d, %d)",
								n, res.Completed, res.Killed, res.Stalled, res.Events,
								refRes.Completed, refRes.Killed, refRes.Stalled, refRes.Events)
						}
					}
				})
			}
		})
	}
}

// TestChaosHorizonTruncationNoStalls is the watchdog's false-positive
// regression: a faultless run cut off by the horizon must report its
// unfinished flows as incomplete-at-horizon — never stalled.
// Truncation is the experimenter's choice, not a liveness bug.
func TestChaosHorizonTruncationNoStalls(t *testing.T) {
	cfg := topo.DefaultLeafSpine()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 4
	for _, proto := range chaosProtocols() {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			flows := workload.GeneratePoisson(workload.PoissonConfig{
				Hosts:    cfg.Hosts(),
				Load:     0.5,
				HostRate: cfg.HostRate,
				Dist:     workload.WebSearch(),
				Count:    200,
				Seed:     5,
			})
			res := LeafSpineRun{
				Topo:    cfg,
				Stack:   MustStack(proto, StackOptions{}),
				Flows:   flows,
				Horizon: 20 * sim.Millisecond,
				Audit:   true,
			}.Run()
			if res.Stalled != 0 {
				for _, o := range res.Outcomes {
					if o.Outcome == transport.OutcomeStalled {
						t.Errorf("flow %d reported stalled on a faultless run: %s", o.ID, o.Diagnosis)
					}
				}
			}
			if res.Killed != 0 {
				t.Errorf("%d flows killed with no crash in the plan", res.Killed)
			}
			if res.Completed == res.Total {
				t.Fatal("horizon did not truncate the run; shorten it to keep the regression meaningful")
			}
			incomplete := 0
			for _, o := range res.Outcomes {
				if o.Outcome == transport.OutcomeRunning {
					incomplete++
					if !strings.Contains(o.Diagnosis, "incomplete at horizon") {
						t.Errorf("flow %d diagnosis %q lacks the horizon explanation", o.ID, o.Diagnosis)
					}
				}
			}
			if incomplete != res.Total-res.Completed {
				t.Errorf("%d flows diagnosed incomplete, want %d", incomplete, res.Total-res.Completed)
			}
		})
	}
}
