package experiment_test

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"amrt"
	"amrt/internal/experiment"
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

// The determinism contract, as one grid: a run's bytes are a function
// of its config and seed alone, not of the shard count, the scheduler
// or the observers attached. Each detCell is one simulation. The wheel
// phase runs every (cell, stack) once as the reference (wheel
// scheduler, one shard, trace, metrics and audit attached) and then
// requires:
//
//   - the same emitted bytes (trace records, merged metrics dump,
//     outcomes and RunResult scalars, or a figure's whole result) at
//     every shard count the cell admits;
//   - the same scalars from a run with no observer attached;
//   - zero audit violations and the cell's fault-plan event counts;
//   - for the pinned cells, the digest pinFile holds.
//
// The heap phase reruns the cells that name heap shard counts under the
// heap scheduler and requires the reference's bytes again. The
// scheduler is a process-wide default (sim.SetDefaultScheduler), so
// only the wheel phase runs in parallel. A new source of cells (a
// scenario fuzzer) appends to detCells; a new comparison is one more
// check in TestDeterminism.

var updatePins = flag.Bool("update", false, "rewrite testdata/pinned_digests.json from this build's runs")

// pinFile holds the tree's absolute golden. Every other check here is
// relative (N shards == 1, heap == wheel, observed == plain), so a
// change that shifts an event's sequence draw the same way on both
// sides passes them all; the pins do not move unless the simulated
// behaviour does. A behaviour change bumps amrt.SimVersion and
// regenerates them:
//
//	go test ./internal/experiment -run 'TestDeterminism/wheel' -update
const pinFile = "testdata/pinned_digests.json"

// pinSet is the committed pin file: one pin per pinned (stack, cell),
// valid for exactly one simulation-behaviour generation.
type pinSet struct {
	SimVersion string         `json:"sim_version"`
	Pins       map[string]pin `json:"pins"`
}

// pin is what one pinned cell must reproduce. Digest is the SHA-256
// over the metrics JSON dump and every flow's (ID, Outcome, End) in ID
// order; Events, the dispatched-event count, stands beside it rather
// than inside it, so a change that only removes or adds events shows in
// the pin file's diff as exactly that.
type pin struct {
	Digest string `json:"digest"`
	Events uint64 `json:"events"`
}

// detCell is one simulation the suite holds to its bytes: a runner cell
// (a builder, a flow list and an optional fault plan) or a figure cell
// (one of the small figures' bodies), with the stacks it runs and the
// shard counts it admits.
type detCell struct {
	name   string
	stacks []string
	shards []int    // shard counts beyond 1 the wheel phase runs
	heap   []int    // shard counts the heap phase runs
	long   bool     // skipped under -short
	pinned bool     // pinFile holds its digest under "<stack>/<name>"
	wants  []string // what its metrics dump must name

	topo    func() topo.Builder
	flows   func(b topo.Builder) []workload.FlowSpec
	horizon sim.Time
	faults  string
	seed    int64  // the fault plan's seed
	events  string // the plan's event counts (planEvents), if checked

	fig func(st experiment.Stack, r experiment.LeafSpineRun) string
}

// emitted is what one run of a cell wrote.
type emitted struct {
	bytes   string // an observed run's metrics dump, outcomes and scalars, or figure
	scalars string // what a run with no observer must reproduce
	// trace is an observed run's trace records in the canonical order
	// trace.Recorder.WriteCSV prints them in, one line each: two runs
	// print the same CSV iff these are equal, and comparing them skips
	// formatting a line per delivered packet, which cost a third of the
	// suite's CPU.
	trace []trace.Event
	pin   pin
}

// same reports whether two observed runs emitted the same bytes.
func (e emitted) same(o emitted) bool {
	return e.bytes == o.bytes && slices.Equal(e.trace, o.trace)
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

func poisson(dist workload.Dist, load float64, count int, seed int64) func(topo.Builder) []workload.FlowSpec {
	return func(b topo.Builder) []workload.FlowSpec {
		return workload.GeneratePoisson(workload.PoissonConfig{
			Hosts: b.Hosts(), Load: load, HostRate: b.AccessRate(),
			Dist: dist, Count: count, Seed: seed,
		})
	}
}

// incast is 64 synchronized 8-to-1 incasts of 64 KB.
func incast(b topo.Builder) []workload.FlowSpec {
	return workload.GenerateIncast(workload.IncastConfig{
		Hosts: b.Hosts(), Degree: 8, Bytes: 64 << 10, Load: 0.6,
		HostRate: b.AccessRate(), Count: 64, Seed: 7,
	})
}

// planEvents is a plan's event counters in one comparable line.
func planEvents(p *faults.Plan) string {
	return fmt.Sprintf("down %d up %d degrade %d crash %d reboot %d rehash %d",
		p.LinkDownEvents, p.LinkUpEvents, p.DegradeEvents, p.CrashEvents, p.RebootEvents, p.RehashEvents)
}

// nodeFaults is planEvents of one crash, one reboot and one rehash.
const nodeFaults = "down 0 up 0 degrade 0 crash 1 reboot 1 rehash 1"

func detCells() []detCell {
	var (
		amrtOnly   = []string{"AMRT"}
		sharedPair = []string{"pHost", "AMRT"}
		amrtSIRD   = []string{"AMRT", "SIRD"}
		all        = experiment.StackNames()
		metricsSet = []string{`"schema": "amrt-metrics/v1"`, "transport.flows_started", "transport.flows_completed",
			"amrt.grants_sent", "net.delivered", ".queue_pkts", ".mark_rate", ".util"}
	)
	cells := []detCell{
		// The small figures' own bodies: flow lists, samplers, tables.
		{name: "fig1", stacks: []string{"pHost", "AMRT", "SIRD"}, shards: []int{2, 3}, heap: []int{1, 3},
			fig: motivation(experiment.FigBody1)},
		{name: "fig2", stacks: sharedPair, shards: []int{2}, fig: motivation(experiment.FigBody2)},
		{name: "fig9", stacks: amrtOnly, shards: []int{2, 4}, heap: []int{1, 4}, fig: testbed(experiment.FigBody9)},
		{name: "fig11", stacks: sharedPair, shards: []int{2, 4}, fig: testbed(experiment.FigBody11)},

		// Telemetry: every series and counter of a 120-flow run.
		{name: "leafspine-metrics", stacks: amrtOnly, heap: []int{1}, wants: metricsSet,
			topo: smallLeafSpine, flows: poisson(workload.WebSearch(), 0.6, 120, 7), horizon: 5 * sim.Second},
		// Crash cleanup, reboot flushes and the watchdog all schedule events.
		{name: "node-faults", stacks: amrtOnly, heap: []int{1},
			topo: smallLeafSpine, flows: poisson(workload.WebSearch(), 0.6, 80, 11), horizon: 5 * sim.Second,
			faults: "crash=h1.2,at=1ms,up=3ms;reboot=spine0,at=2ms,up=4ms;rehash=5ms", seed: 11, events: nodeFaults},
		// A periodic uplink flap under data and control loss.
		{name: "chaos-link-loss", stacks: amrtOnly, shards: []int{2},
			wants: []string{"faults.link_down_events", "faults.link_up_events", "faults.degrade_events", "net.no_route_drops", "admin_up"},
			topo:  smallLeafSpine, flows: poisson(workload.WebSearch(), 0.6, 120, 7), horizon: 5 * sim.Second,
			faults: "link=leaf0->spine1,down=300us,up=2ms,period=5ms;ctrl-loss=0.005;data-loss=0.005", seed: 7},
		// Every node fault class under control loss.
		{name: "chaos-node-loss", stacks: amrtOnly, shards: []int{2},
			wants: []string{"faults.crash_events", "faults.reboot_events", "faults.rehash_events",
				"experiment.flows_stalled", "experiment.flows_killed_by_crash"},
			topo: smallLeafSpine, flows: poisson(workload.WebSearch(), 0.6, 120, 7), horizon: 5 * sim.Second,
			faults: "crash=h0.0,at=1ms,up=4ms;reboot=leaf1,at=2ms,up=5ms;rehash=3ms;ctrl-loss=0.005", seed: 7, events: nodeFaults},

		// A k=4 fat-tree incast, clean, under every link fault class, and
		// under every node fault class.
		{name: "fattree-incast", stacks: amrtSIRD, shards: []int{2, 4}, heap: []int{4}, long: true,
			topo: smallFatTree, flows: incast, horizon: 20 * sim.Millisecond},
		{name: "fattree-link-faults", stacks: amrtSIRD, shards: []int{2, 4}, heap: []int{4}, long: true,
			topo: smallFatTree, flows: incast, horizon: 20 * sim.Millisecond, seed: 7,
			faults: "link=edge0.0->agg0.0,down=2ms,up=4ms;degrade=edge0.1->agg0.1,at=1ms,until=6ms,factor=0.2;ctrl-loss=0.005",
			events: "down 1 up 1 degrade 1 crash 0 reboot 0 rehash 0"},
		{name: "fattree-node-faults", stacks: amrtSIRD, shards: []int{2, 4}, heap: []int{4}, long: true,
			topo: smallFatTree, flows: incast, horizon: 20 * sim.Millisecond, seed: 7,
			faults: "crash=h0.0.0,at=2ms,up=5ms;reboot=edge1.0,at=3ms,up=6ms;rehash=4ms", events: nodeFaults},

		// The pinned cells, each leaning on a different part of the flow
		// lifecycle. Plain registration, start, announce and completion,
		// with every tenth sender announcing but never sending:
		{name: "poisson", stacks: all, pinned: true, topo: smallLeafSpine, horizon: 20 * sim.Millisecond,
			flows: func(b topo.Builder) []workload.FlowSpec {
				flows := poisson(workload.WebServer(), 0.5, 60, 3)(b)
				for i := 9; i < len(flows); i += 10 {
					flows[i].Unresponsive = true
				}
				return flows
			}},
		// Dependent flows: AddPending on the source shard, Release by a
		// cross-shard signal when the request completes.
		{name: "rpc-shards2", stacks: all, shards: []int{2}, pinned: true, topo: smallLeafSpine, horizon: 20 * sim.Millisecond,
			flows: func(b topo.Builder) []workload.FlowSpec {
				return workload.GenerateRPC(workload.RPCConfig{
					Hosts: b.Hosts(), Load: 0.4, HostRate: b.AccessRate(),
					RequestBytes: 2 << 10, ResponseBytes: 48 << 10, Count: 30, Seed: 5,
				})
			}},
		// Receiver crashes mid-incast: at three shards the crash pass
		// splits across sender-side and home instances, flows die, and
		// survivors re-announce into rebuilt receiver state.
		{name: "fattree-incast-crash-shards3", stacks: all, shards: []int{3}, pinned: true,
			topo: smallFatTree, flows: incast, horizon: 20 * sim.Millisecond, seed: 7,
			faults: "crash=h1.0.0,at=500us,up=1500us;crash=h0.0.0,at=1ms,up=3ms"},
		// Every node-level fault class plus control loss.
		{name: "chaos-audit", stacks: all, pinned: true, topo: smallLeafSpine, horizon: 20 * sim.Millisecond,
			flows: poisson(workload.WebSearch(), 0.5, 60, 11), seed: 7,
			faults: "crash=h0.0,at=5ms,up=7ms;crash=h1.1,at=10ms,up=12ms;reboot=leaf1,at=6ms,up=8ms;rehash=9ms;ctrl-loss=0.01"},
	}
	// The fault matrix: one spec per fault class, every stack. The loss
	// classes keep their counts on the wrapped queues, not on the plan.
	// Each targeted element sits off shard 0 at 2 and 4 shards (leaf1,
	// spine1 and leaf1's hosts), so a fault action homed to the wrong
	// shard changes the sharded run.
	for _, class := range []struct{ name, spec, events string }{
		{"flap", "link=leaf1->spine1,down=2ms,up=5ms", "down 1 up 1 degrade 0 crash 0 reboot 0 rehash 0"},
		{"degrade", "degrade=leaf1->spine1,at=1ms,until=6ms,factor=0.2", "down 0 up 0 degrade 1 crash 0 reboot 0 rehash 0"},
		{"ctrl-loss", "ctrl-loss=0.01", ""},
		{"burst", "burst-loss=tobad:0.003,togood:0.2,bad:0.5", ""},
		{"crash", "crash=h1.1,at=2ms,up=6ms", "down 0 up 0 degrade 0 crash 1 reboot 0 rehash 0"},
		{"reboot", "reboot=leaf1,at=4ms,up=7ms", "down 0 up 0 degrade 0 crash 0 reboot 1 rehash 0"},
		{"rehash", "rehash=9ms", "down 0 up 0 degrade 0 crash 0 reboot 0 rehash 1"},
	} {
		cells = append(cells, detCell{name: "matrix-" + class.name, stacks: all, shards: []int{2, 4}, long: true,
			topo: smallLeafSpine, flows: poisson(workload.WebSearch(), 0.5, 60, 3), horizon: 50 * sim.Millisecond,
			faults: class.spec, seed: 3, events: class.events})
	}
	return cells
}

// motivation and testbed serialize what a figure body returns, every
// sample at full precision, so two runs agree iff they are bit-identical.
func motivation(fig func(experiment.Stack, experiment.LeafSpineRun) experiment.MotivationResult) func(experiment.Stack, experiment.LeafSpineRun) string {
	return func(st experiment.Stack, r experiment.LeafSpineRun) string {
		res := fig(st, r)
		var buf bytes.Buffer
		writeSeries(&buf, res.FlowSeries...)
		writeSeries(&buf, res.Util, res.LinkUtil)
		res.Phases.Fprint(&buf)
		return buf.String()
	}
}

func testbed(fig func(experiment.Stack, experiment.LeafSpineRun) experiment.TestbedResult) func(experiment.Stack, experiment.LeafSpineRun) string {
	return func(st experiment.Stack, r experiment.LeafSpineRun) string {
		res := fig(st, r)
		var buf bytes.Buffer
		writeSeries(&buf, res.Series...)
		res.Summary.Fprint(&buf)
		for _, f := range res.Flows {
			fmt.Fprintf(&buf, "flow %d done=%v end=%d\n", f.ID, f.Done, int64(f.End))
		}
		return buf.String()
	}
}

func writeSeries(buf *bytes.Buffer, series ...*stats.Series) {
	for _, s := range series {
		fmt.Fprintf(buf, "series %s\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(buf, "%d %x\n", int64(p.T), p.V)
		}
	}
}

// scalars is every number a RunResult reports, and every outcome.
func scalars(res experiment.RunResult) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "completed=%d/%d afct=%d p99=%d util=%x maxq=%d btlq=%d drops=%d trims=%d events=%d lastend=%d "+
		"stalled=%d killed=%d deadlines=%d/%d\n",
		res.Completed, res.Total, int64(res.AFCT), int64(res.P99), res.Utilization, res.MaxQueue, res.BottleneckQueue,
		res.Drops, res.Trims, res.Events, int64(res.LastEnd), res.Stalled, res.Killed, res.DeadlineMissed, res.DeadlineTotal)
	for _, o := range res.Outcomes {
		fmt.Fprintf(&buf, "flow %d %v last=%d dl=%v %s\n", o.ID, o.Outcome, int64(o.LastProgress), o.MissedDeadline, o.Diagnosis)
	}
	return buf.String()
}

// leg runs the cell for one stack at nshards under the current default
// scheduler, with trace, metrics and audit attached if observed.
func (c detCell) leg(t *testing.T, stack string, nshards int, observed bool) emitted {
	t.Helper()
	r := experiment.LeafSpineRun{Stack: experiment.MustStack(stack, experiment.StackOptions{}), Shards: nshards}
	rec := &trace.Recorder{}
	if observed {
		r.Trace, r.Metrics, r.Audit = rec, metrics.NewRegistry(), true
	}
	var out bytes.Buffer
	if c.fig != nil {
		// A figure returns its own result, not the run's registry: keep
		// each shard's slice as its stack instance is built, and merge
		// them as the runner does.
		var parts []*metrics.Registry
		st, newInst := r.Stack, r.Stack.New
		st.New = func(net *netsim.Network, base transport.Config) experiment.Instance {
			parts = append(parts, base.Metrics)
			return newInst(net, base)
		}
		fig := c.fig(st, r)
		if observed {
			reg := parts[0]
			if len(parts) > 1 {
				reg = metrics.Merged(parts...)
			}
			writeMetrics(t, &out, reg)
		}
		out.WriteString(fig)
		return emitted{bytes: out.String(), scalars: fig, trace: canonical(rec)}
	}

	b := c.topo()
	r.Topo, r.Flows, r.Horizon = b, c.flows(b), c.horizon
	if c.faults != "" {
		r.Faults = faults.MustParse(c.faults)
		r.Faults.Seed = c.seed
	}
	res, err := r.RunE()
	if err != nil {
		t.Fatalf("%d shards: %v", nshards, err)
	}
	if c.events != "" {
		if got := planEvents(r.Faults); got != c.events {
			t.Errorf("%d shards: plan events %q, want %q", nshards, got, c.events)
		}
	}
	e := emitted{scalars: scalars(res)}
	if !observed {
		return e
	}
	if res.AuditChecks == 0 || res.AuditViolations != 0 {
		t.Errorf("%d shards: audit ran %d checks with %d violations, want some and none", nshards, res.AuditChecks, res.AuditViolations)
	}
	dump := writeMetrics(t, &out, res.Metrics)
	out.WriteString(e.scalars)
	e.bytes, e.trace = out.String(), canonical(rec)
	if c.pinned {
		// The pin hashes the dump and every flow's end, unresponsive
		// flows' included, in ID order.
		flows := slices.Clone(res.Flows)
		slices.SortFunc(flows, func(a, b *transport.Flow) int { return cmp.Compare(a.ID, b.ID) })
		for _, f := range flows {
			fmt.Fprintf(&dump, "flow %d %v end=%d\n", f.ID, f.Outcome, int64(f.End))
		}
		e.pin = pin{Digest: fmt.Sprintf("%x", sha256.Sum256(dump.Bytes())), Events: res.Events}
	}
	return e
}

// writeMetrics appends the metrics dump, JSON then CSV, to out, and
// returns the JSON dump.
func writeMetrics(t *testing.T, out *bytes.Buffer, reg *metrics.Registry) bytes.Buffer {
	t.Helper()
	var dump bytes.Buffer
	if err := reg.WriteJSON(&dump); err != nil {
		t.Fatal(err)
	}
	out.Write(dump.Bytes())
	if err := reg.WriteCSV(out); err != nil {
		t.Fatal(err)
	}
	return dump
}

// canonical sorts rec's records as WriteCSV sorts them, in place, and
// returns them.
func canonical(rec *trace.Recorder) []trace.Event {
	slices.SortFunc(rec.Events, trace.Compare)
	return rec.Events
}

// underScheduler runs fn with the process-wide default scheduler set to
// kind, restoring the previous default afterwards.
func underScheduler(kind sim.SchedulerKind, fn func()) {
	prev := sim.DefaultScheduler()
	sim.SetDefaultScheduler(kind)
	defer sim.SetDefaultScheduler(prev)
	fn()
}

// pinKeys lists the "<stack>/<cell>" key of every pinned (cell, stack).
func pinKeys(cells []detCell) []string {
	var keys []string
	for _, c := range cells {
		for _, stack := range c.stacks {
			if c.pinned {
				keys = append(keys, stack+"/"+c.name)
			}
		}
	}
	return keys
}

// readPins loads pinFile and checks that it is this build's and pins
// exactly the pinned (cell, stack) pairs.
func readPins(t *testing.T, keys []string) pinSet {
	t.Helper()
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
	for _, key := range keys {
		if _, ok := want.Pins[key]; !ok {
			t.Errorf("%s has no pin: regenerate the pins with -update", key)
		}
	}
	if len(want.Pins) != len(keys) {
		t.Errorf("%d pins for %d pinned cells: regenerate the pins with -update", len(want.Pins), len(keys))
	}
	return want
}

func TestDeterminism(t *testing.T) {
	cells := detCells()
	keys := pinKeys(cells)
	var want pinSet
	if !*updatePins {
		want = readPins(t, keys)
	}
	got := pinSet{SimVersion: amrt.SimVersion, Pins: map[string]pin{}}
	var mu sync.Mutex
	// refs holds the wheel references of the cells the heap phase
	// reruns, until it has.
	refs := map[string]emitted{}

	t.Run("wheel", func(t *testing.T) {
		for _, c := range cells {
			t.Run(c.name, func(t *testing.T) {
				if c.long && testing.Short() {
					t.Skip("not a short cell")
				}
				t.Parallel()
				for _, stack := range c.stacks {
					t.Run(stack, func(t *testing.T) {
						t.Parallel()
						ref := c.leg(t, stack, 1, true)
						if len(c.heap) > 0 {
							mu.Lock()
							refs[c.name+"/"+stack] = ref
							mu.Unlock()
						}
						for _, n := range c.shards {
							if !c.leg(t, stack, n, true).same(ref) {
								t.Errorf("%d-shard run emitted other bytes than the one-shard reference", n)
							}
						}
						if plain := c.leg(t, stack, 1, false); plain.scalars != ref.scalars {
							t.Errorf("observers changed the run:\nplain:    %.300s\nobserved: %.300s", plain.scalars, ref.scalars)
						}
						for _, w := range c.wants {
							if !strings.Contains(ref.bytes, w) {
								t.Errorf("metrics dump does not name %q", w)
							}
						}
						if !c.pinned {
							return
						}
						key := stack + "/" + c.name
						mu.Lock()
						got.Pins[key] = ref.pin
						mu.Unlock()
						if w := want.Pins[key]; !*updatePins && w != ref.pin {
							t.Errorf("digest %.12s… events %d, pinned %.12s… events %d: simulated behaviour changed under %s "+
								"(a deliberate change bumps amrt.SimVersion and regenerates the pins with -update)",
								ref.pin.Digest, ref.pin.Events, w.Digest, w.Events, amrt.SimVersion)
						}
					})
				}
			})
		}
	})

	if *updatePins {
		if len(got.Pins) != len(keys) || t.Failed() {
			t.Fatalf("not writing %s: %d of %d pinned cells ran and passed", pinFile, len(got.Pins), len(keys))
		}
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

	t.Run("heap", func(t *testing.T) {
		for _, c := range cells {
			if len(c.heap) == 0 {
				continue
			}
			t.Run(c.name, func(t *testing.T) {
				if c.long && testing.Short() {
					t.Skip("not a short cell")
				}
				for _, stack := range c.stacks {
					t.Run(stack, func(t *testing.T) {
						ref, ok := refs[c.name+"/"+stack]
						if !ok { // the wheel phase was filtered out
							ref = c.leg(t, stack, 1, true)
						}
						delete(refs, c.name+"/"+stack)
						for _, n := range c.heap {
							var heap emitted
							underScheduler(sim.SchedulerHeap, func() { heap = c.leg(t, stack, n, true) })
							if !heap.same(ref) {
								t.Errorf("%d-shard heap run emitted other bytes than the one-shard wheel reference", n)
							}
						}
					})
				}
			})
		}
	})
}
