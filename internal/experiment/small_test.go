package experiment

import (
	"bytes"
	"slices"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
	"amrt/internal/workload"
)

// tapNet returns st with its network recorded in *net, for tests that
// scan the built topology's queues after a run.
func tapNet(st Stack, net **netsim.Network) Stack {
	return withConfig(st, func(c *transport.Config) { *net = c.Shard.Network() })
}

// The goodput trackers: one per flow, on the flow's home shard only;
// Goodput in spec order — not ID order, not first-delivery order — at
// every shard count; no series for a flow that never delivered; no
// tracker table at all unless a window was given.
func TestSmallRunGoodput(t *testing.T) {
	st := MustStack("AMRT", StackOptions{})
	b := topo.Chain()
	flows := []workload.FlowSpec{
		{ID: 3, Src: b.Sender(2), Dst: b.Receiver(2), Size: 200_000, Start: 100 * sim.Microsecond},
		{ID: 1, Src: b.Sender(0), Dst: b.Receiver(0), Size: 200_000, Start: 200 * sim.Microsecond},
		{ID: 4, Src: b.Sender(3), Dst: b.Receiver(3), Size: 200_000, Start: 10 * sim.Millisecond}, // past the horizon
		{ID: 2, Src: b.Sender(1), Dst: b.Receiver(1), Size: 200_000},                              // delivers first
	}
	for _, nshards := range []int{1, 2, 3} {
		x := &run{LeafSpineRun: LeafSpineRun{Topo: b, Stack: st, Flows: flows, Horizon: 2 * sim.Millisecond, Shards: nshards,
			FlowNames: []string{"c", "a", "d", "b"}, GoodputWindow: 100 * sim.Microsecond}}
		if err := x.setUp(); err != nil {
			t.Fatal(err)
		}
		x.execute()
		res := x.collect()
		x.ls.Net.Release()

		if len(x.goodput) != nshards {
			t.Fatalf("%d shards: %d tracker tables", nshards, len(x.goodput))
		}
		for _, f := range res.Flows {
			for i := range x.goodput {
				if has, want := x.goodput[i].Get(f.ID) != nil, i == int(f.Home); has != want {
					t.Errorf("%d shards: flow %d (home %d) tracker on shard %d = %v, want %v", nshards, f.ID, f.Home, i, has, want)
				}
			}
		}
		var got []string
		for _, sr := range res.Goodput {
			got = append(got, sr.Name)
			if len(sr.Points) == 0 {
				t.Errorf("%d shards: series %s is empty", nshards, sr.Name)
			}
		}
		if want := []string{"c", "a", "b"}; !slices.Equal(got, want) {
			t.Errorf("%d shards: series order %v, want %v", nshards, got, want)
		}
	}

	x := &run{LeafSpineRun: LeafSpineRun{Topo: b, Stack: st, Flows: flows[1:2], Horizon: sim.Millisecond, Shards: 2}}
	if err := x.setUp(); err != nil {
		t.Fatal(err)
	}
	x.execute()
	if res := x.collect(); x.goodput != nil || res.Goodput != nil {
		t.Errorf("untracked run allocated trackers: %d tables, %d series", len(x.goodput), len(res.Goodput))
	}
	x.ls.Net.Release()
}

// TestSmallRunUtilSamplers: a sampled bottleneck is sampled at interval,
// 2·interval, … up to the horizon inclusive, each sample covering only
// its own window (the monitor resets after every sample), and the same
// series come out at every shard count, with two ports sampled on one
// engine at one shard.
func TestSmallRunUtilSamplers(t *testing.T) {
	const interval, horizon = 100 * sim.Microsecond, 2 * sim.Millisecond
	b := topo.Chain()
	var ref []*stats.Series
	for _, nshards := range []int{1, 2} {
		got := LeafSpineRun{
			Topo: b, Stack: MustStack("AMRT", StackOptions{}), Horizon: horizon, Shards: nshards,
			// Crosses both bottlenecks.
			Flows:    pairFlows(b, []int64{10_000_000}, []sim.Time{0}),
			Samplers: []UtilSampler{{Name: "btl0", Interval: interval}, {Name: "btl1", Bottleneck: 1, Interval: interval}},
		}.Run().Util
		if len(got) != 2 {
			t.Fatalf("%d shards: %d series for 2 samplers", nshards, len(got))
		}
		for _, u := range got {
			if n := len(u.Points); n != 20 || u.Points[0].T != interval || u.Points[n-1].T != horizon {
				t.Fatalf("%d shards: %s sampled %d times, %v…%v; want 20, %v…%v",
					nshards, u.Name, n, u.Points[0].T, u.Points[n-1].T, interval, horizon)
			}
			for _, p := range u.Points {
				if p.V < 0 || p.V > 1.01 {
					t.Errorf("%d shards: %s sample %v at %v is not one window's utilization", nshards, u.Name, p.V, p.T)
				}
			}
			if m := u.MeanBetween(500*sim.Microsecond, horizon+1); m < 0.5 {
				t.Errorf("%d shards: %s mean utilization %.3f under a bulk flow", nshards, u.Name, m)
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if !slices.Equal(got[i].Points, ref[i].Points) {
				t.Errorf("%d shards: %s differs from the single-engine series", nshards, got[i].Name)
			}
		}
	}
}

// TestSmallFiguresAudited runs Figs 1, 2, 9 and 11 with the invariant
// auditor at one and two shards: the auditor stays silent (a violation
// panics with its forensic dump) and every printed table is byte-equal
// to the unaudited run's.
func TestSmallFiguresAudited(t *testing.T) {
	motivation := func(fig func(Stack, LeafSpineRun) MotivationResult) func(Stack, LeafSpineRun) *Table {
		return func(st Stack, r LeafSpineRun) *Table { return fig(st, r).Phases }
	}
	testbed := func(fig func(Stack, LeafSpineRun) TestbedResult) func(Stack, LeafSpineRun) *Table {
		return func(st Stack, r LeafSpineRun) *Table { return fig(st, r).Summary }
	}
	for _, c := range []struct {
		name   string
		stacks []string
		table  func(Stack, LeafSpineRun) *Table
	}{
		{"Fig1", []string{"pHost", "AMRT"}, motivation(fig1)},
		{"Fig2", []string{"pHost", "AMRT"}, motivation(fig2)},
		{"Fig9", []string{"AMRT"}, testbed(fig9)},
		{"Fig11", ProtocolNames(), testbed(fig11)},
	} {
		for _, stack := range c.stacks {
			st := MustStack(stack, StackOptions{})
			var want bytes.Buffer
			c.table(st, LeafSpineRun{}).Fprint(&want)
			for _, n := range []int{1, 2} {
				var got bytes.Buffer
				c.table(st, LeafSpineRun{Shards: n, Audit: true}).Fprint(&got)
				if got.String() != want.String() {
					t.Errorf("%s %s audited at %d shards:\n%s\nunaudited:\n%s", c.name, stack, n, got.String(), want.String())
				}
			}
		}
	}
}

// TestSmallRunAllocs holds a small run's set-up to a fixed number of
// allocations per kind of object: a warm Fig-2-shaped pHost run on the
// 4-pair fan — Fig 2's flows, sizes and starts to its horizon —
// allocates at most 93 objects, and with Fig 2's goodput trackers and
// link sampler at most 147. (The scenario harness the run replaced paid
// 245 and 299; one allocation per port, queue, host record and name
// paid 223 and 277; growing the flow index and taking bitmap arrays
// without the word pool paid 99 and 153.)
func TestSmallRunAllocs(t *testing.T) {
	b := topo.Fan(4)
	r := LeafSpineRun{
		Topo: b, Stack: MustStack("pHost", StackOptions{}), Horizon: 16 * sim.Millisecond,
		Flows: pairFlows(b, []int64{625_000, 1_250_000, 1_875_000, 2_500_000},
			[]sim.Time{0, 5 * sim.Microsecond, 10 * sim.Microsecond, 15 * sim.Microsecond}),
	}
	figure := r
	figure.FlowNames, figure.GoodputWindow = motivationFlows, 100*sim.Microsecond
	figure.Samplers = []UtilSampler{{Name: "btl-link-util", Interval: 100 * sim.Microsecond}}
	for _, c := range []struct {
		name string
		run  LeafSpineRun
		max  float64
	}{{"bare", r, 93}, {"with Fig 2's series", figure, 147}} {
		c.run.Run() // warm the jitter free list
		if got := programAllocsPerRun(5, func() { c.run.Run() }); got > c.max {
			t.Errorf("%s: a warm run allocates %.0f objects, want <= %.0f", c.name, got, c.max)
		}
	}
}
