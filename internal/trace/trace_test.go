package trace

import (
	"fmt"
	"strings"
	"testing"

	"amrt/internal/core"
	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

func TestRecorderCapAndCount(t *testing.T) {
	r := &Recorder{MaxEvents: 2}
	for i := 0; i < 5; i++ {
		r.Add(Event{At: sim.Time(i), Kind: PacketDelivered})
	}
	if len(r.Events) != 2 || r.TruncatedEvents != 3 {
		t.Errorf("events=%d truncated=%d", len(r.Events), r.TruncatedEvents)
	}
}

func TestEventKindString(t *testing.T) {
	if FlowStart.String() != "start" || PacketDropped.String() != "drop" {
		t.Error("kind names wrong")
	}
	if EventKind(99).String() != "kind(99)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestWriteCSVSorted(t *testing.T) {
	r := &Recorder{}
	r.Add(Event{At: 3000, Kind: FlowDone, Flow: 1})
	r.Add(Event{At: 1000, Kind: FlowStart, Flow: 1})
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[1], "1.000,start") || !strings.HasPrefix(lines[2], "3.000,done") {
		t.Errorf("CSV not time-ordered:\n%s", b.String())
	}
}

func TestAttachChainsHooks(t *testing.T) {
	cfg := core.DefaultConfig()
	s := topo.Fan(1).Build(topo.Overlay{SwitchQueue: cfg.SwitchQueue, HostQueue: core.HostQueue})
	cfg.RTT = 100 * sim.Microsecond
	prevData, prevDone := 0, 0
	cfg.OnData = func(*transport.Flow, *netsim.Packet) { prevData++ }
	cfg.OnDone = func(*transport.Flow) { prevDone++ }
	rec := &Recorder{}
	rec.Attach(s.Net, &cfg.Config)
	p := core.New(s.Net, cfg)
	p.AddFlow(1, s.Senders[0], s.Receivers[0], 30_000, 0)
	s.Net.Run(sim.Second)
	if prevData == 0 || prevDone != 1 {
		t.Errorf("original hooks not chained: data=%d done=%d", prevData, prevDone)
	}
	if len(rec.Events) == 0 {
		t.Error("recorder saw nothing")
	}
}

// FuzzAppendMicros holds WriteCSV's integer t_us digits equal to %.3f
// of Microseconds(), the form the trace format was defined by.
func FuzzAppendMicros(f *testing.F) {
	for _, t := range []int64{0, 1, 999, 1000, 1_234_567, 1<<51 - 1, 1 << 51, -1, 1<<63 - 1} {
		f.Add(t)
	}
	f.Fuzz(func(t *testing.T, ns int64) {
		at := sim.Time(ns)
		if got, want := string(appendMicros(nil, at)), fmt.Sprintf("%.3f", at.Microseconds()); got != want {
			t.Fatalf("appendMicros(%d) = %q, %%.3f prints %q", ns, got, want)
		}
	})
}
