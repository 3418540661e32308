package experiment

import (
	"slices"
	"testing"

	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// The goodput trackers: one per delivering flow, on the flow's home
// shard only; Series in AddFlow order — not ID order, not first-delivery
// order — at every shard count; no series for a flow that never
// delivered; no tracker table at all unless a window was given.
func TestScenarioHarnessTrackers(t *testing.T) {
	st := MustStack("AMRT", StackOptions{})
	names := []string{"a", "b", "c", "d"}
	for _, nshards := range []int{1, 2, 3} {
		h := NewScenarioHarness(st, topo.DefaultScenario(), topo.NewChain, transport.Config{}, nshards, 100*sim.Microsecond, names)
		s := h.S
		h.AddFlow(3, s.Senders[2], s.Receivers[2], 200_000, 100*sim.Microsecond)
		h.AddFlow(1, s.Senders[0], s.Receivers[0], 200_000, 200*sim.Microsecond)
		h.AddFlow(4, s.Senders[3], s.Receivers[3], 200_000, 10*sim.Millisecond) // past the horizon
		h.AddFlow(2, s.Senders[1], s.Receivers[1], 200_000, 0)                  // delivers first
		h.Run(2 * sim.Millisecond)

		if len(h.trackers) != nshards {
			t.Fatalf("%d shards: %d tracker tables", nshards, len(h.trackers))
		}
		for _, f := range h.Flows() {
			for i := range h.trackers {
				has, want := h.trackers[i].Get(f.ID) != nil, i == int(f.Home) && f.ID != 4
				if has != want {
					t.Errorf("%d shards: flow %d (home %d) tracker on shard %d = %v, want %v", nshards, f.ID, f.Home, i, has, want)
				}
			}
		}
		var got []string
		for _, sr := range h.Series() {
			got = append(got, sr.Name)
			if len(sr.Points) == 0 {
				t.Errorf("%d shards: series %s is empty", nshards, sr.Name)
			}
		}
		if want := []string{"c", "a", "b"}; !slices.Equal(got, want) {
			t.Errorf("%d shards: series order %v, want %v", nshards, got, want)
		}
	}

	h := NewScenarioHarness(st, topo.DefaultScenario(), topo.NewChain, transport.Config{}, 2, 0, nil)
	h.AddFlow(1, h.S.Senders[0], h.S.Receivers[0], 200_000, 0)
	h.Run(sim.Millisecond)
	if h.trackers != nil || h.Series() != nil {
		t.Errorf("untracked run allocated trackers: %d tables, %d series", len(h.trackers), len(h.Series()))
	}
}

// TestScenarioHarnessTrackUtil: a tracked port is sampled at interval,
// 2·interval, … up to the horizon inclusive, each sample covering only
// its own window (the monitor resets after every sample), and the same
// series come out at every shard count, with two ports tracked on one
// engine at one shard.
func TestScenarioHarnessTrackUtil(t *testing.T) {
	const interval, horizon = 100 * sim.Microsecond, 2 * sim.Millisecond
	st := MustStack("AMRT", StackOptions{})
	var ref []*stats.Series
	for _, nshards := range []int{1, 2} {
		h := NewScenarioHarness(st, topo.DefaultScenario(), topo.NewChain, transport.Config{}, nshards, 0, nil)
		s := h.S
		got := []*stats.Series{
			h.TrackUtil("btl0", s.Bottlenecks[0], interval, horizon),
			h.TrackUtil("btl1", s.Bottlenecks[1], interval, horizon),
		}
		h.AddFlow(1, s.Senders[0], s.Receivers[0], 10_000_000, 0) // crosses both bottlenecks
		h.Run(horizon)

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
