package amrt

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"amrt/internal/topo"
)

// TestSweepRecyclesJitterStreams: one campaign of the benchmark's
// sweep_cold grid — five stacks × WebServer × three loads × two seeds,
// 400 flows a cell, two workers, into an empty cache — mints new
// per-port jitter streams for at most two networks' worth of ports.
// Every other cell re-seeds streams a finished cell handed back
// (netsim.Network.Release); without that the grid mints one per port
// per cell, fifteen times the bound. The count is exact: stream objects
// allocated by netsim's takeJitterStream, in a profile sampling every
// allocation.
func TestSweepRecyclesJitterStreams(t *testing.T) {
	sc := SweepConfig{
		Protocols: Protocols(),
		Workloads: []string{"WebServer"},
		Loads:     []float64{0.3, 0.5, 0.7},
		Seeds:     []int64{1, 2},
		Base:      Config{Flows: 400},
		Workers:   2,
		CacheDir:  filepath.Join(t.TempDir(), "cache"),
	}
	b, err := sc.Base.Topology.builder()
	if err != nil {
		t.Fatal(err)
	}
	fab := b.Build(topo.Overlay{})
	ports := len(fab.Net.Hosts())
	for _, sw := range fab.Net.Switches() {
		ports += len(sw.Ports())
	}

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := newStreams(t)
	res, err := Sweep(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	minted := newStreams(t) - before
	if res.CacheMisses != 30 || len(res.Points) != 30 {
		t.Fatalf("campaign computed %d of %d points, want 30", res.CacheMisses, len(res.Points))
	}
	if limit := int64(sc.Workers * ports); minted > limit {
		t.Errorf("30 cells of %d ports minted %d jitter streams, want at most %d (%d workers' networks)",
			ports, minted, limit, sc.Workers)
	}
}

// newStreams returns how many jitter streams netsim has minted while the
// memory profile recorded them, as of a collection it runs first (the
// profile publishes at the end of a cycle). It counts the objects
// netsim's takeJitterStream allocates itself, the streams: not the
// math/rand source each one wraps, nor any other source — the workload
// generators' — nor the runtime's one-time cache for the type assertion
// there.
func newStreams(t *testing.T) int64 {
	t.Helper()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	var total int64
	for i := range recs {
		f, _ := runtime.CallersFrames(recs[i].Stack()).Next()
		if f.Function == "amrt/internal/netsim.takeJitterStream" {
			total += recs[i].AllocObjects
		}
	}
	return total
}
