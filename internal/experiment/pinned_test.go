package experiment_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"amrt"
	"amrt/internal/experiment"
	"amrt/internal/faults"
	"amrt/internal/metrics"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
	"amrt/internal/workload"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/pinned_digests.json from this build's runs")

const pinFile = "testdata/pinned_digests.json"

// pinSet is the committed pin file: one pin per (stack, cell), valid for
// exactly one simulation-behaviour generation.
type pinSet struct {
	SimVersion string         `json:"sim_version"`
	Pins       map[string]pin `json:"pins"`
}

// pin is what one cell must reproduce. Digest is the SHA-256 over the
// metrics JSON dump and every flow's (ID, Outcome, End) in ID order;
// Events, the dispatched-event count, stands beside it rather than
// inside it, so a change that only removes or adds events shows in the
// pin file's diff as exactly that.
type pin struct {
	Digest string `json:"digest"`
	Events uint64 `json:"events"`
}

// pinnedCell is one small full-runner simulation whose every output is
// hashed. Each cell leans on a different part of the flow lifecycle.
type pinnedCell struct {
	name   string
	shards int
	audit  bool
	faults string
	topo   func() topo.Builder
	flows  func(b topo.Builder) []workload.FlowSpec
}

func smallLeafSpine() topo.Builder {
	cfg := topo.DefaultLeafSpine()
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 2, 2, 4
	return cfg
}

func smallFatTree() topo.Builder {
	cfg := topo.DefaultFatTree()
	cfg.K = 4
	return cfg
}

func poissonFlows(dist workload.Dist, seed int64) func(topo.Builder) []workload.FlowSpec {
	return func(b topo.Builder) []workload.FlowSpec {
		return workload.GeneratePoisson(workload.PoissonConfig{
			Hosts: b.Hosts(), Load: 0.5, HostRate: b.AccessRate(),
			Dist: dist, Count: 60, Seed: seed,
		})
	}
}

func pinnedCells() []pinnedCell {
	return []pinnedCell{
		// Plain registration, start, announce and completion, with every
		// tenth sender announcing but never sending.
		{name: "poisson", shards: 1, topo: smallLeafSpine,
			flows: func(b topo.Builder) []workload.FlowSpec {
				flows := poissonFlows(workload.WebServer(), 3)(b)
				for i := 9; i < len(flows); i += 10 {
					flows[i].Unresponsive = true
				}
				return flows
			}},
		// Dependent flows: AddPending on the source shard, Release by a
		// cross-shard signal when the request completes.
		{name: "rpc-shards2", shards: 2, topo: smallLeafSpine,
			flows: func(b topo.Builder) []workload.FlowSpec {
				return workload.GenerateRPC(workload.RPCConfig{
					Hosts: b.Hosts(), Load: 0.4, HostRate: b.AccessRate(),
					RequestBytes: 2 << 10, ResponseBytes: 48 << 10, Count: 30, Seed: 5,
				})
			}},
		// A receiver crash mid-incast on three shards: the crash pass
		// splits across sender-side and home instances, flows die, and
		// survivors re-announce into rebuilt receiver state.
		{name: "fattree-incast-crash-shards3", shards: 3, topo: smallFatTree,
			faults: "crash=h1.0.0,at=500us,up=1500us;crash=h0.0.0,at=1ms,up=3ms",
			flows: func(b topo.Builder) []workload.FlowSpec {
				return workload.GenerateIncast(workload.IncastConfig{
					Hosts: b.Hosts(), Degree: 8, Bytes: 64 << 10, Load: 0.6,
					HostRate: b.AccessRate(), Count: 64, Seed: 7,
				})
			}},
		// Every node-level fault class plus control loss, auditor on.
		{name: "chaos-audit", shards: 1, audit: true, topo: smallLeafSpine, flows: poissonFlows(workload.WebSearch(), 11),
			faults: "crash=h0.0,at=5ms,up=7ms;crash=h1.1,at=10ms,up=12ms;" +
				"reboot=leaf1,at=6ms,up=8ms;rehash=9ms;ctrl-loss=0.01"},
	}
}

// runPinnedCell runs one cell and returns its pin.
func runPinnedCell(t *testing.T, stack string, c pinnedCell) pin {
	t.Helper()
	st := experiment.MustStack(stack, experiment.StackOptions{})
	// The result reports outcomes but not end times; read those off the
	// flows themselves by keeping the instances the runner builds.
	var insts []experiment.Instance
	newInst := st.New
	st.New = func(net *netsim.Network, base transport.Config) experiment.Instance {
		inst := newInst(net, base)
		insts = append(insts, inst)
		return inst
	}
	b := c.topo()
	run := experiment.LeafSpineRun{
		Topo: b, Stack: st, Flows: c.flows(b), Horizon: 20 * sim.Millisecond,
		Metrics: metrics.NewRegistry(), Shards: c.shards, Audit: c.audit,
	}
	if c.faults != "" {
		run.Faults = faults.MustParse(c.faults)
		run.Faults.Seed = 7
	}
	res, err := run.RunE()
	if err != nil {
		t.Fatalf("%s/%s: %v", stack, c.name, err)
	}
	var buf bytes.Buffer
	if err := res.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// A cross-shard flow sits in two instances' tables; list it once.
	seen := map[netsim.FlowID]bool{}
	var flows []*transport.Flow
	for _, inst := range insts {
		for _, f := range inst.OrderedFlows() {
			if !seen[f.ID] {
				seen[f.ID] = true
				flows = append(flows, f)
			}
		}
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].ID < flows[j].ID })
	for _, f := range flows {
		fmt.Fprintf(&buf, "flow %d %v end=%d\n", f.ID, f.Outcome, int64(f.End))
	}
	return pin{Digest: fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), Events: res.Events}
}

// TestPinnedRunDigests is the tree's absolute golden. Every other
// golden is relative (wheel == heap, N shards == 1, run twice), so a
// change that shifts an event's sequence draw the same way on both
// sides passes them all; this one compares each stack's
// output on four small cells against digests committed to testdata.
// A behaviour change bumps amrt.SimVersion and regenerates the pins:
//
//	go test ./internal/experiment -run TestPinnedRunDigests -update
func TestPinnedRunDigests(t *testing.T) {
	got := pinSet{SimVersion: amrt.SimVersion, Pins: map[string]pin{}}
	for _, stack := range experiment.StackNames() {
		for _, c := range pinnedCells() {
			got.Pins[stack+"/"+c.name] = runPinnedCell(t, stack, c)
		}
	}
	if *updatePins {
		out, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d pins for %s to %s", len(got.Pins), got.SimVersion, pinFile)
		return
	}
	raw, err := os.ReadFile(pinFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want pinSet
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", pinFile, err)
	}
	if want.SimVersion != amrt.SimVersion {
		t.Fatalf("%s was recorded for %s but this build is %s: regenerate the pins with -update",
			pinFile, want.SimVersion, amrt.SimVersion)
	}
	if len(got.Pins) != len(want.Pins) {
		t.Errorf("%d cells ran, %d are pinned: regenerate the pins with -update", len(got.Pins), len(want.Pins))
	}
	for key, g := range got.Pins {
		if w := want.Pins[key]; w != g {
			t.Errorf("%s: digest %.12s… events %d, pinned %.12s… events %d: simulated behaviour changed under %s "+
				"(a deliberate change bumps amrt.SimVersion and regenerates the pins with -update)",
				key, g.Digest, g.Events, w.Digest, w.Events, amrt.SimVersion)
		}
	}
}
