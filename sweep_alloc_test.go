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
// 400 flows a cell, two workers, into an empty cache — creates new
// per-port jitter generators for at most two networks' worth of ports.
// Every other cell re-seeds generators a finished cell handed back
// (netsim.Network.Release); without that the grid creates one per port
// per cell, fifteen times the bound. The count is exact: allocations
// under math/rand.NewSource called from a port's jitter draw, in a
// profile sampling every allocation.
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
	before := newSources(t)
	res, err := Sweep(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	minted := newSources(t) - before
	if res.CacheMisses != 30 || len(res.Points) != 30 {
		t.Fatalf("campaign computed %d of %d points, want 30", res.CacheMisses, len(res.Points))
	}
	if limit := int64(sc.Workers * ports); minted > limit {
		t.Errorf("30 cells of %d ports created %d jitter generators, want at most %d (%d workers' networks)",
			ports, minted, limit, sc.Workers)
	}
}

// newSources returns how many math/rand sources netsim's port jitter has
// allocated while the memory profile recorded them, as of a collection
// it runs first (the profile publishes at the end of a cycle). Other
// sources — the workload generators' — do not count.
func newSources(t *testing.T) int64 {
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
		source, jitter := false, false
		frames := runtime.CallersFrames(recs[i].Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			source = source || f.Function == "math/rand.NewSource"
			jitter = jitter || f.Function == "amrt/internal/netsim.(*Port).jitter"
		}
		if source && jitter {
			total += recs[i].AllocObjects
		}
	}
	return total
}
