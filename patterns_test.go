package amrt

import (
	"testing"
	"time"

	"amrt/internal/sim"
)

func incastCell() Config {
	return Config{
		Topology:     Topology{Kind: "fattree", K: 4},
		Pattern:      "incast",
		IncastDegree: 4,
		Flows:        80,
		Seed:         7,
	}
}

func shuffleCell() Config {
	return Config{
		Topology:     Topology{Kind: "clos", Pods: 2, Leaves: 2, HostsPerLeaf: 4},
		Pattern:      "shuffle",
		ShuffleWidth: 2,
		ShuffleBytes: 64 << 10,
		Seed:         7,
	}
}

// underScheduler runs fn with the given default scheduler kind, then
// restores the previous default.
func underScheduler(kind sim.SchedulerKind, fn func()) {
	prev := sim.DefaultScheduler()
	sim.SetDefaultScheduler(kind)
	defer sim.SetDefaultScheduler(prev)
	fn()
}

func TestIncastCellDeterministic(t *testing.T) {
	cfg := incastCell()
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a != b {
		t.Errorf("same incast cell produced different results:\n%+v\n%+v", a, b)
	}
	if a.Completed != a.Total || a.Total != cfg.Flows {
		t.Errorf("incast completed %d/%d, want %d", a.Completed, a.Total, cfg.Flows)
	}
	cfg.Seed = 8
	if c := mustRun(t, cfg); a == c {
		t.Error("different incast seed produced identical results")
	}
}

func TestShuffleCellDeterministic(t *testing.T) {
	cfg := shuffleCell()
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a != b {
		t.Errorf("same shuffle cell produced different results:\n%+v\n%+v", a, b)
	}
	// 16 hosts × width 2, whatever Flows says.
	if a.Total != 32 || a.Completed != 32 {
		t.Errorf("shuffle completed %d/%d, want 32/32", a.Completed, a.Total)
	}
}

func TestPatternCellsSchedulerIndependent(t *testing.T) {
	for name, cfg := range map[string]Config{"incast": incastCell(), "shuffle": shuffleCell()} {
		var wheel, heap Result
		underScheduler(sim.SchedulerWheel, func() { wheel = mustRun(t, cfg) })
		underScheduler(sim.SchedulerHeap, func() { heap = mustRun(t, cfg) })
		if wheel != heap {
			t.Errorf("%s: wheel and heap schedulers disagree:\n%+v\n%+v", name, wheel, heap)
		}
	}
}

func TestRPCDeadlineAccounting(t *testing.T) {
	cfg := Config{
		Topology:    Topology{Kind: "clos", Pods: 2, Leaves: 2, HostsPerLeaf: 4},
		Pattern:     "rpc",
		Flows:       60,
		Seed:        5,
		RPCDeadline: time.Nanosecond, // unmeetable: every response misses
	}
	res := mustRun(t, cfg)
	if res.DeadlineTotal != cfg.Flows {
		t.Errorf("DeadlineTotal = %d, want one per RPC = %d", res.DeadlineTotal, cfg.Flows)
	}
	if res.DeadlineMissed != res.DeadlineTotal {
		t.Errorf("1ns budget missed %d/%d deadlines, want all", res.DeadlineMissed, res.DeadlineTotal)
	}

	cfg.RPCDeadline = time.Second // generous: nothing misses
	res = mustRun(t, cfg)
	if res.DeadlineTotal != cfg.Flows || res.DeadlineMissed != 0 {
		t.Errorf("1s budget: %d/%d missed, want 0/%d", res.DeadlineMissed, res.DeadlineTotal, cfg.Flows)
	}

	cfg.RPCDeadline = 0 // disabled: no ledger at all
	res = mustRun(t, cfg)
	if res.DeadlineTotal != 0 || res.DeadlineMissed != 0 {
		t.Errorf("disabled deadlines still counted: %d/%d", res.DeadlineMissed, res.DeadlineTotal)
	}
}
