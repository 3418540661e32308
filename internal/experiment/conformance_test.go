package experiment

import (
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// The flow-lifecycle contract every stack meets, as one grid: each
// TestConformance* is a property, and each of its subtests a row of
// stackTable, built by MustStack on the same fan. A row that differs is
// an exception cell: it asserts what the stack does today and names the
// ROADMAP item that will change it, so no row is left out. A property
// of one stack's own mechanism stays in that stack's package.

// confRTT is the harness's base RTT.
const confRTT = 100 * sim.Microsecond

// lifecycle is what the suite drives: an Instance, the flow calls every
// stack's embedded transport.Kernel promotes, and the stack's count of
// live receiver records.
type lifecycle interface {
	Instance
	AddFlow(id netsim.FlowID, src, dst *netsim.Host, size int64, start sim.Time) *transport.Flow
	Now() sim.Time
	BlindPkts(f *transport.Flow) int32
	NewData(f *transport.Flow, seq int32, prio uint8) *netsim.Packet
	NewCtrl(typ netsim.PacketType, f *transport.Flow, seq int32, toSender bool) *netsim.Packet
	LiveReceivers() int
}

// confFan is the shared harness: one stack on a fan of sender/receiver
// pairs across one bottleneck.
type confFan struct {
	*topo.Fabric
	p lifecycle
}

// newConfFan puts the named stack on topo.Fan(pairs), configured by
// base at the harness RTT.
func newConfFan(name string, pairs int, base transport.Config) confFan {
	st := MustStack(name, StackOptions{})
	s := topo.Fan(pairs).Build(st.Overlay)
	base.RTT = confRTT
	return confFan{s, st.New(s.Net, base).(lifecycle)}
}

// eachStack runs cell as one subtest per row of the stack table.
func eachStack(t *testing.T, cell func(t *testing.T, name string)) {
	for _, r := range stackTable {
		t.Run(r.name, func(t *testing.T) { cell(t, r.name) })
	}
}

// pending registers n unstarted flows of size bytes from S0 to R0,
// IDs from 1, on the sender side, and also on the receiver side if
// adopt.
func (s confFan) pending(n int, size int64, adopt bool) []*transport.Flow {
	flows := make([]*transport.Flow, n)
	for i := range flows {
		flows[i] = s.p.AddPending(netsim.FlowID(i+1), s.Senders[0], s.Receivers[0], size, false)
		if adopt {
			s.p.Adopt(flows[i])
		}
	}
	return flows
}

// lost is what the fabric lost: drops at every queue, plus the payloads
// NDP's switches trimmed.
func (s confFan) lost() int64 {
	n := s.Net.Dropped()
	for _, sw := range s.Switches {
		for _, pt := range sw.Ports() {
			if q, ok := pt.Queue().(*netsim.TrimmingQueue); ok {
				n += q.Trims
			}
		}
	}
	return n
}

// TestConformanceSingleFlow: a 1 MB flow on an idle one-pair fan
// completes, reaches the collector once, loses nothing, and takes
// between its 800 µs of serialization at 10 Gbit/s and 2 ms.
func TestConformanceSingleFlow(t *testing.T) {
	eachStack(t, func(t *testing.T, name string) {
		col := stats.NewFCTCollector()
		s := newConfFan(name, 1, transport.Config{Collector: col})
		f := s.p.AddFlow(1, s.Senders[0], s.Receivers[0], 1_000_000, 0)
		s.Net.Run(sim.Second)
		if !f.Done || col.Count() != 1 {
			t.Fatalf("done %v, %d flows collected; want done, 1", f.Done, col.Count())
		}
		if fct := f.FCT(); fct < 800*sim.Microsecond || fct > 2*sim.Millisecond {
			t.Errorf("FCT = %v, want within [800µs, 2ms]", fct)
		}
		if n := s.lost(); n != 0 {
			t.Errorf("%d packets lost on an uncontended path", n)
		}
	})
}

// TestConformanceStartAllocs: once warm, a flow's start — its announce
// and its blind window — allocates nothing, and leaves the flow's send
// cursor past its blind window: the cursor lives on the flow, so there
// is no sender record to build. The flows are registered on the sender
// side only, so the destination answers nothing and builds no receiver
// record either.
//
// DCTCP is the exception cell, by design rather than pending an item:
// it is sender-driven, so its start builds a sender record and sends
// from that record's cursor, leaving the kernel's at 0. The record's
// ack bitmap of 67 packets takes an array from the word pool, and these
// flows never complete to give one back: one allocation a start.
// TestFlowLifeAllocs in internal/dctcp holds flows that do complete.
func TestConformanceStartAllocs(t *testing.T) {
	eachStack(t, func(t *testing.T, name string) {
		s := newConfFan(name, 1, transport.Config{})
		const runs = 100
		flows := s.pending(runs+1, 100_000, false) // the warm-up takes one more
		next := 0
		allocs := programAllocsPerRun(runs, func() {
			s.p.Release(flows[next], s.p.Now())
			next++
			s.Net.Run(s.p.Now() + 10*confRTT)
		})
		wantAllocs, sendsBlind := 0.0, true
		if name == "DCTCP" {
			wantAllocs, sendsBlind = 1, false
		}
		if allocs != wantAllocs {
			t.Errorf("a flow's start: %.1f allocs, want %.0f", allocs, wantAllocs)
		}
		for _, f := range flows {
			want := int32(0)
			if sendsBlind {
				want = s.p.BlindPkts(f)
			}
			if !f.SenderStarted || f.SendNext != want {
				t.Fatalf("%v: started %v, cursor %d; want started, cursor %d", f, f.SenderStarted, f.SendNext, want)
			}
		}
	})
}

// TestConformanceReceiverAllocs: once warm, a receiver record's whole
// life — built by the RTS, filled by the data, ended at Complete — and
// the next flow's build allocate nothing: the next flow gets the ended
// record back, its bitmap array from the instance's word pool. The
// flows are 100 packets, so the bitmaps need an array. Afterwards no
// record is live.
//
// Exception cells, until ROADMAP item 5 ends every record at Complete:
// the stacks in keepsRecords still hold every flow's record afterwards.
func TestConformanceReceiverAllocs(t *testing.T) {
	eachStack(t, func(t *testing.T, name string) {
		s := newConfFan(name, 1, transport.Config{})
		const runs = 50
		flows := s.pending(runs+1, 100*netsim.MSS, true) // the warm-up takes one more
		next := 0
		allocs := programAllocsPerRun(runs, func() {
			f := flows[next]
			next++
			s.p.Release(f, s.p.Now())
			s.Net.Run(s.p.Now() + 20*confRTT)
			if !f.Done {
				t.Fatalf("%v did not complete", f)
			}
		})
		if allocs != 0 {
			t.Errorf("a receiver record's life: %.1f allocs, want 0", allocs)
		}
		want := 0
		if keepsRecords[name] {
			want = len(flows)
		}
		if live := s.p.LiveReceivers(); live != want {
			t.Errorf("%d receiver records held after %d flows, want %d", live, len(flows), want)
		}
	})
}

// keepsRecords names the stacks that keep a finished flow's receiver
// record, so that a late RTS still finds it, until ROADMAP item 5 ends
// every record at Complete. Their bitmap arrays go back to the pool at
// Complete; only the records wait.
var keepsRecords = map[string]bool{"Homa": true, "SIRD": true, "DCTCP": true}

// TestConformanceRecordEndsWithFlow: an 8→1 incast of 300 KB flows
// loses packets, and every flow still completes. A receiver record —
// bitmaps, timers, recovery state — ends with its flow, and what
// arrives afterwards (a duplicate data packet, a trimmed header, a late
// RTS) finds the flow done: no record is rebuilt, nothing is sent,
// nothing is scheduled.
//
// Exception cells: Homa, SIRD and DCTCP keep the records (item 5), and
// SIRD's late RTS still kicks the host's idle credit pacer, one event.
// DCTCP's marking holds this incast under its 128-packet queues, so it
// loses nothing, and it re-ACKs the late data: one packet, three
// events.
func TestConformanceRecordEndsWithFlow(t *testing.T) {
	type late struct {
		lossless bool
		injected int64
		events   uint64
	}
	exceptions := map[string]late{"SIRD": {events: 1}, "DCTCP": {lossless: true, injected: 1, events: 3}}
	eachStack(t, func(t *testing.T, name string) {
		want := exceptions[name]
		s := newConfFan(name, 8, transport.Config{})
		flows := make([]*transport.Flow, 8)
		for i := range flows {
			flows[i] = s.p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[0], 300_000, 0)
		}
		s.Net.Run(sim.Forever)
		if lost := s.lost(); (lost == 0) != want.lossless {
			t.Fatalf("the incast lost %d packets; want lossless %v", lost, want.lossless)
		}
		for _, f := range flows {
			if !f.Done {
				t.Fatalf("%v did not complete", f)
			}
		}
		records := 0
		if keepsRecords[name] {
			records = len(flows)
		}
		if live := s.p.LiveReceivers(); live != records {
			t.Fatalf("%d receiver records held after the flows completed, want %d", live, records)
		}
		f := flows[3]
		events, injected := s.Net.Engine.Executed, s.Net.Injected()
		f.Dst.Receive(s.p.NewData(f, 0, netsim.PrioData))
		f.Dst.Receive(s.p.NewCtrl(netsim.Header, f, 0, false))
		f.Dst.Receive(s.p.NewCtrl(netsim.RTS, f, -1, false))
		s.Net.Run(sim.Forever)
		if live := s.p.LiveReceivers(); live != records {
			t.Errorf("late packets left %d receiver records, want %d", live, records)
		}
		if got := s.Net.Injected() - injected; got != want.injected {
			t.Errorf("late packets were answered with %d packets, want %d", got, want.injected)
		}
		if got := s.Net.Engine.Executed - events; got != want.events {
			t.Errorf("late packets scheduled %d events, want %d", got, want.events)
		}
	})
}

// TestConformanceDeterminism: the same three staggered flows on a
// three-pair fan, run twice, end at the same instant with the same
// events executed, packets injected and packets dropped.
func TestConformanceDeterminism(t *testing.T) {
	type outcome struct {
		end               sim.Time
		events            uint64
		injected, dropped int64
	}
	eachStack(t, func(t *testing.T, name string) {
		run := func() outcome {
			s := newConfFan(name, 3, transport.Config{})
			var last *transport.Flow
			for i := 0; i < 3; i++ {
				last = s.p.AddFlow(netsim.FlowID(i+1), s.Senders[i], s.Receivers[i], 2_000_000, sim.Time(i)*40*sim.Microsecond)
			}
			s.Net.Run(sim.Second)
			if !last.Done {
				t.Fatalf("%v did not complete", last)
			}
			return outcome{last.End, s.Net.Engine.Executed, s.Net.Injected(), s.Net.Dropped()}
		}
		if a, b := run(), run(); a != b {
			t.Errorf("nondeterministic: %+v, then %+v", a, b)
		}
	})
}

// TestConformanceSmallWindowRamp is the paper's §2/§4 contrast as a
// grid: a 2 MB flow on an idle path, its clock seeded by an 8-packet
// blind window. A stack whose credit is arrival-clocked stays at that
// window — 1,334 packets at 8 per ~100 µs RTT take ≥ 12 ms — and one
// that can claim idle bandwidth ramps to within 4 ms: AMRT through its
// marked grants, Homa and SIRD through a grant target of one BDP, DCTCP
// through slow start.
func TestConformanceSmallWindowRamp(t *testing.T) {
	clocked := map[string]bool{"pHost": true, "NDP": true}
	eachStack(t, func(t *testing.T, name string) {
		s := newConfFan(name, 1, transport.Config{BlindWindow: 8})
		f := s.p.AddFlow(1, s.Senders[0], s.Receivers[0], 2_000_000, 0)
		s.Net.Run(sim.Second)
		if !f.Done {
			t.Fatal("flow did not complete")
		}
		switch fct := f.FCT(); {
		case clocked[name] && fct < 12*sim.Millisecond:
			t.Errorf("FCT = %v: an arrival-clocked window grabbed spare bandwidth", fct)
		case !clocked[name] && fct > 4*sim.Millisecond:
			t.Errorf("FCT = %v: the window did not ramp to fill the idle link", fct)
		}
	})
}

// TestConformanceLongFlow: an 8 MB flow alone on the one-pair fan runs
// within 1.5× of its line-rate time and loses nothing.
//
// DCTCP is the exception cell until ROADMAP item 14: slow start sees no
// mark on an idle path, so the flow overflows its own sender's
// 1024-packet NIC queue, and each drop costs an RTO. The cell pins
// those drops and the stall they cause.
func TestConformanceLongFlow(t *testing.T) {
	const size = 8_000_000
	eachStack(t, func(t *testing.T, name string) {
		s := newConfFan(name, 1, transport.Config{})
		f := s.p.AddFlow(1, s.Senders[0], s.Receivers[0], size, 0)
		s.Net.Run(2 * sim.Second)
		if !f.Done {
			t.Fatal("flow did not complete")
		}
		lost, nic := s.lost(), s.Senders[0].NIC().Drops
		if name == "DCTCP" {
			if lost != 1580 || nic != lost || f.FCT() != 952541964*sim.Nanosecond {
				t.Errorf("lost %d, %d at the sender's NIC, FCT %v; want 1580, all at the NIC, 952.541964ms", lost, nic, f.FCT())
			}
			return
		}
		if line := s.Senders[0].LinkRate().TxTime(size); f.FCT() > line*3/2 {
			t.Errorf("FCT = %v, want within 1.5 × the %v line-rate time", f.FCT(), line)
		}
		if lost != 0 {
			t.Errorf("%d packets lost on an idle path", lost)
		}
	})
}
