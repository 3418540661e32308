package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"amrt/internal/faults"
	"amrt/internal/metrics"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/trace"
	"amrt/internal/workload"
)

// This file is the shard-count-equivalence proof required by the
// parallel engine (docs/PARALLELISM.md): the sharded conservative
// time-window loop must produce byte-identical results — flow goodput
// traces, event traces, metrics dumps, outcomes — to the single-engine
// reference at the same seed, for every shard count and under both
// schedulers. It is the sharding analogue of golden_test.go's
// wheel-vs-heap proof.

// The four figure tests below run the figures' own bodies (fig1, fig2,
// fig9, fig11 — what Fig1 … Fig11 call on an empty run), so the proof
// covers the figure itself: its flow list, its samplers, its tables.

// shardsAgree fails t unless dump(n) equals dump(1) for every n.
func shardsAgree(t *testing.T, what string, dump func(nshards int) string, counts ...int) {
	t.Helper()
	ref := dump(1)
	if ref == "" {
		t.Fatalf("%s: empty reference trace", what)
	}
	for _, n := range counts {
		if dump(n) != ref {
			t.Errorf("%s: %d-shard trace differs from single-engine reference", what, n)
		}
	}
}

// TestGoldenShardsFig1 proves shards=1 vs shards=N byte-identity on the
// Fig-1 chain for a sender-paced (pHost) and a receiver-driven (AMRT)
// stack, across every shard count the 3-switch topology admits.
func TestGoldenShardsFig1(t *testing.T) {
	for _, stack := range []string{"pHost", "AMRT"} {
		shardsAgree(t, "Fig1 "+stack, func(n int) string {
			return goldenMotivation(sim.SchedulerWheel, fig1, stack, n)
		}, 2, 3)
	}
}

// TestGoldenShardsFig2 is the same proof on the Fig-2 fan (2 switches):
// the figure ROADMAP item 1 reports as stalled, so the one a bisect will
// lean on.
func TestGoldenShardsFig2(t *testing.T) {
	for _, stack := range []string{"pHost", "AMRT"} {
		shardsAgree(t, "Fig2 "+stack, func(n int) string {
			return goldenMotivation(sim.SchedulerWheel, fig2, stack, n)
		}, 2)
	}
}

// TestGoldenShardsFig9 proves shards=1 vs shards=N byte-identity on the
// Fig-9 testbed (4 switches, two independent dumbbells).
func TestGoldenShardsFig9(t *testing.T) {
	shardsAgree(t, "Fig9", func(n int) string {
		return goldenTestbed(sim.SchedulerWheel, fig9, "AMRT", n)
	}, 2, 4)
}

// TestGoldenShardsFig11 is the same proof on the Fig-11 multi-bottleneck
// testbed (3 switches; at 4 shards one shard owns nothing).
func TestGoldenShardsFig11(t *testing.T) {
	for _, stack := range []string{"pHost", "AMRT"} {
		shardsAgree(t, "Fig11 "+stack, func(n int) string {
			return goldenTestbed(sim.SchedulerWheel, fig11, stack, n)
		}, 2, 4)
	}
}

// TestGoldenShardsWheelVsHeap proves wheel-vs-heap agreement *under
// sharding*: the two schedulers must stay byte-identical when each
// shard runs its own scheduler instance inside the time-window loop.
func TestGoldenShardsWheelVsHeap(t *testing.T) {
	if goldenMotivation(sim.SchedulerWheel, fig1, "AMRT", 3) != goldenMotivation(sim.SchedulerHeap, fig1, "AMRT", 3) {
		t.Error("Fig1 3-shard trace differs between wheel and heap schedulers")
	}
	if goldenTestbed(sim.SchedulerWheel, fig9, "AMRT", 4) != goldenTestbed(sim.SchedulerHeap, fig9, "AMRT", 4) {
		t.Error("Fig9 4-shard trace differs between wheel and heap schedulers")
	}
}

// goldenFatTreeIncast runs an incast cell on a k=4 fat-tree through the
// full large-scale runner — trace recorder, telemetry registry, flow
// outcomes, and (when faultSpec is non-empty) a fault plan — and
// serializes everything the run can emit.
func goldenFatTreeIncast(kind sim.SchedulerKind, stack string, nshards int, faultSpec string) string {
	var buf bytes.Buffer
	underScheduler(kind, func() {
		cfg := topo.DefaultFatTree()
		cfg.K = 4
		flows := workload.GenerateIncast(workload.IncastConfig{
			Hosts:    cfg.Hosts(),
			Degree:   8,
			Bytes:    64 << 10,
			Load:     0.6,
			HostRate: cfg.HostRate,
			Count:    64,
			Seed:     7,
		})
		rec := &trace.Recorder{}
		reg := metrics.NewRegistry()
		run := LeafSpineRun{
			Topo:    cfg,
			Stack:   MustStack(stack, StackOptions{}),
			Flows:   flows,
			Horizon: 20 * sim.Millisecond,
			Trace:   rec,
			Metrics: reg,
			Shards:  nshards,
			Audit:   true,
		}
		if faultSpec != "" {
			plan := faults.MustParse(faultSpec)
			plan.Seed = 7
			run.Faults = plan
		}
		res := run.Run()
		if err := rec.WriteCSV(&buf); err != nil {
			panic(err)
		}
		if err := res.Metrics.WriteJSON(&buf); err != nil {
			panic(err)
		}
		fmt.Fprintf(&buf, "completed=%d/%d afct=%d p99=%d util=%x drops=%d trims=%d events=%d lastend=%d\n",
			res.Completed, res.Total, int64(res.AFCT), int64(res.P99),
			res.Utilization, res.Drops, res.Trims, res.Events, int64(res.LastEnd))
		for _, o := range res.Outcomes {
			fmt.Fprintf(&buf, "flow %d %v last=%d dl=%v %s\n", o.ID, o.Outcome, int64(o.LastProgress), o.MissedDeadline, o.Diagnosis)
		}
	})
	return buf.String()
}

// TestGoldenShardsFatTreeIncast proves shards=1 vs shards=N byte-
// identity — trace CSV, metrics JSON, outcomes, and every scalar the
// runner reports — for a fat-tree incast cell, auditor attached, under
// both schedulers.
func TestGoldenShardsFatTreeIncast(t *testing.T) {
	if testing.Short() {
		t.Skip("fat-tree incast golden run is not short")
	}
	ref := goldenFatTreeIncast(sim.SchedulerWheel, "AMRT", 1, "")
	if ref == "" {
		t.Fatal("empty fat-tree incast reference dump")
	}
	for _, n := range []int{2, 4} {
		if got := goldenFatTreeIncast(sim.SchedulerWheel, "AMRT", n, ""); got != ref {
			t.Errorf("fat-tree incast: %d-shard dump differs from single-engine reference", n)
		}
	}
	if got := goldenFatTreeIncast(sim.SchedulerHeap, "AMRT", 4, ""); got != ref {
		t.Error("fat-tree incast: 4-shard heap dump differs from single-engine wheel reference")
	}
}

// TestGoldenShardsSIRD is the same proof for the sender-informed stack:
// the demand-weighted credit pool must be byte-identical — trace CSV,
// metrics JSON, outcomes — across shards 1, 2, and 4 with the auditor
// (including the credit-pool rule) attached, under both schedulers, and
// on the Fig-1 chain harness under wheel vs heap.
func TestGoldenShardsSIRD(t *testing.T) {
	if testing.Short() {
		t.Skip("fat-tree incast golden run is not short")
	}
	ref := goldenFatTreeIncast(sim.SchedulerWheel, "SIRD", 1, "")
	if ref == "" {
		t.Fatal("empty SIRD fat-tree incast reference dump")
	}
	for _, n := range []int{2, 4} {
		if got := goldenFatTreeIncast(sim.SchedulerWheel, "SIRD", n, ""); got != ref {
			t.Errorf("SIRD fat-tree incast: %d-shard dump differs from single-engine reference", n)
		}
	}
	if got := goldenFatTreeIncast(sim.SchedulerHeap, "SIRD", 4, ""); got != ref {
		t.Error("SIRD fat-tree incast: 4-shard heap dump differs from single-engine wheel reference")
	}
	if goldenMotivation(sim.SchedulerWheel, fig1, "SIRD", 3) != goldenMotivation(sim.SchedulerHeap, fig1, "SIRD", 3) {
		t.Error("SIRD Fig1 3-shard trace differs between wheel and heap schedulers")
	}
}

// Fault specs for the golden byte-identity proofs below. The link
// spec exercises every link-level fault class (flap, degrade,
// control-loss); the node spec exercises every node-level class
// (host crash, switch reboot, ECMP rehash). Port names follow the
// fat-tree convention "from->to".
const (
	goldenLinkFaultSpec = "link=edge0.0->agg0.0,down=2ms,up=4ms;" +
		"degrade=edge0.1->agg0.1,at=1ms,until=6ms,factor=0.2;" +
		"ctrl-loss=0.005"
	goldenNodeFaultSpec = "crash=h0.0.0,at=2ms,up=5ms;" +
		"reboot=edge1.0,at=3ms,up=6ms;" +
		"rehash=4ms"
)

// TestGoldenShardsFaultLinkLevel proves the tentpole acceptance
// criterion for link-level faults: a full-runner fat-tree incast cell
// with a flap + degrade + control-loss plan must emit byte-identical
// trace CSV, metrics JSON, scalars, and flow outcomes across shards
// 1, 2, and 4 (auditor attached), under both schedulers.
func TestGoldenShardsFaultLinkLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("fat-tree incast golden run is not short")
	}
	for _, stack := range []string{"AMRT", "SIRD"} {
		ref := goldenFatTreeIncast(sim.SchedulerWheel, stack, 1, goldenLinkFaultSpec)
		if ref == "" {
			t.Fatalf("%s: empty link-fault reference dump", stack)
		}
		for _, n := range []int{2, 4} {
			if got := goldenFatTreeIncast(sim.SchedulerWheel, stack, n, goldenLinkFaultSpec); got != ref {
				t.Errorf("%s link faults: %d-shard dump differs from single-engine reference", stack, n)
			}
		}
		if got := goldenFatTreeIncast(sim.SchedulerHeap, stack, 4, goldenLinkFaultSpec); got != ref {
			t.Errorf("%s link faults: 4-shard heap dump differs from single-engine wheel reference", stack)
		}
	}
}

// TestGoldenShardsFaultNodeLevel is the same proof for node-level
// faults: host crash (NIC flush + downlink park + per-stack state
// teardown on both the sender- and receiver-owning shards), switch
// reboot, and an ECMP salt rotation delivered to every shard at the
// same instant.
func TestGoldenShardsFaultNodeLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("fat-tree incast golden run is not short")
	}
	for _, stack := range []string{"AMRT", "SIRD"} {
		ref := goldenFatTreeIncast(sim.SchedulerWheel, stack, 1, goldenNodeFaultSpec)
		if ref == "" {
			t.Fatalf("%s: empty node-fault reference dump", stack)
		}
		for _, n := range []int{2, 4} {
			if got := goldenFatTreeIncast(sim.SchedulerWheel, stack, n, goldenNodeFaultSpec); got != ref {
				t.Errorf("%s node faults: %d-shard dump differs from single-engine reference", stack, n)
			}
		}
		if got := goldenFatTreeIncast(sim.SchedulerHeap, stack, 4, goldenNodeFaultSpec); got != ref {
			t.Errorf("%s node faults: 4-shard heap dump differs from single-engine wheel reference", stack)
		}
	}
}
