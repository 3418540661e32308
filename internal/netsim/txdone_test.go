package netsim

import (
	"fmt"
	"slices"
	"testing"

	"amrt/internal/sim"
)

// Lazy transmit completion (see Port.busy): these tests hold the port to
// what an eager tx-done event per transmission would have done, in event
// counts where the point is that the event is gone, and in every
// observable value where the point is that nothing else moved.

// txTime is one MSS packet at the 10 Gbps the tests use: 1200 ns.
const txTime = 1200 * sim.Nanosecond

// wire builds A → B over one link with the given egress queue on A, and
// returns A's NIC. dequeues logs "time:seq" for every packet the NIC
// starts to transmit (through the marker hook, which runs at the
// dequeue).
func wire(q Queue, delay sim.Time) (n *Network, a, b *Host, nic *Port, dequeues *[]string) {
	n = New()
	a, b = n.NewHost("A"), n.NewHost("B")
	nic, _ = n.Connect(a, b, 10*sim.Gbps, delay, q, nil)
	log := &dequeueLog{}
	nic.Marker = log
	return n, a, b, nic, &log.at
}

type dequeueLog struct{ at []string }

func (l *dequeueLog) OnDequeue(_ *Port, pkt *Packet, now sim.Time) {
	l.at = append(l.at, fmt.Sprintf("%d:%d", int64(now), pkt.Seq))
}

func data(a, b *Host, seq int32, prio uint8) *Packet {
	return &Packet{Flow: 1, Type: Data, Seq: seq, Size: MSS, Src: a.ID(), Dst: b.ID(), Prio: prio}
}

// TestIdleHopIsOneEvent: a packet crossing an idle three-hop chain costs
// its three deliveries and nothing else (a tx-done per hop made it six),
// while a port that stays busy keeps its completion events — all but the
// last transmission's, which nothing waits for.
func TestIdleHopIsOneEvent(t *testing.T) {
	n, a, b := hopLine(1)
	blast(n, a, b, a.Shard(), 1, sim.Forever)
	if got := n.Engine.Executed; got != 3 {
		t.Errorf("one packet over three idle hops took %d events, want 3", got)
	}
	if b.RxPackets != 1 {
		t.Fatalf("delivered %d packets, want 1", b.RxPackets)
	}

	const burst = 50
	n, a, b, nic, _ := wire(NewDropTail(0), sim.Microsecond)
	for i := int32(0); i < burst; i++ {
		a.Send(data(a, b, i, PrioData))
	}
	n.Run(sim.Forever)
	if got, want := n.Engine.Executed, uint64(2*burst-1); got != want {
		t.Errorf("%d back-to-back packets through one port took %d events, want %d (eager: %d)",
			burst, got, want, 2*burst)
	}
	if b.RxPackets != burst || nic.TxPackets != burst || nic.TxBytes != burst*MSS {
		t.Errorf("delivered %d, port counts %d packets %d bytes, want %d, %d, %d",
			b.RxPackets, nic.TxPackets, nic.TxBytes, burst, burst, burst*MSS)
	}
}

// TestCompletionScheduledOncePerTransmission: the tx-done event appears
// when the first packet queues behind an open transmission, not before
// and not again.
func TestCompletionScheduledOncePerTransmission(t *testing.T) {
	n, a, b, nic, _ := wire(NewDropTail(0), sim.Microsecond)
	eng := n.Engine
	step := func(what string, want int) {
		t.Helper()
		if got := eng.Pending(); got != want {
			t.Fatalf("%s: %d events pending, want %d", what, got, want)
		}
	}
	a.Send(data(a, b, 0, PrioData))
	step("one packet on an idle port (its delivery)", 1)
	a.Send(data(a, b, 1, PrioData))
	step("a packet queued behind it (+ the completion)", 2)
	a.Send(data(a, b, 2, PrioData))
	step("a second packet queued behind it", 2)
	n.Run(txTime) // the completion fires and starts packet 1, with packet 2 behind
	step("second transmission open, one packet behind (2 deliveries + completion)", 3)
	if !nic.Busy() || nic.TxPackets != 1 {
		t.Fatalf("at %v: busy %v, %d transmitted, want busy with 1", eng.Now(), nic.Busy(), nic.TxPackets)
	}
	n.Run(sim.Forever)
	if got := eng.Executed; got != 3+2 {
		t.Errorf("three packets took %d events, want 3 deliveries + 2 completions", got)
	}
}

// eagerPort is the transmitter as it was before completion went lazy —
// a tx-done event per transmission, scheduled at the dequeue — kept here
// as the reference the real port's dequeue order is compared with.
type eagerPort struct {
	eng      *sim.Engine
	q        Queue
	busy     bool
	dequeues []string
}

func (r *eagerPort) send(pkt *Packet) {
	r.q.Enqueue(pkt, r.eng.Now())
	r.trySend()
}

func (r *eagerPort) trySend() {
	if r.busy {
		return
	}
	pkt := r.q.Dequeue()
	if pkt == nil {
		return
	}
	r.busy = true
	r.dequeues = append(r.dequeues, fmt.Sprintf("%d:%d", int64(r.eng.Now()), pkt.Seq))
	r.eng.Schedule((10 * sim.Gbps).TxTime(pkt.Size), func() {
		r.busy = false
		r.trySend()
	})
}

// TestSameInstantDequeueOrder: sends that land on a strict-priority port
// at the very instant its transmission ends see the transmitter busy or
// free according to which side of the tx-done position they sort on —
// and so decide which packet leaves next. The lazy port must agree with
// the eager reference in every case. (Settling on the clock alone gets
// "two before" wrong; a completion that draws its sequence number when
// the waiting packet arrives gets "low before, high after" wrong.)
func TestSameInstantDequeueOrder(t *testing.T) {
	type send struct {
		when string // relative to the dequeue that opens the transmission: "keyed", "before", "after"
		seq  int32
		prio uint8
	}
	cases := []struct {
		name   string
		behind bool // a low-priority packet (seq 1) already waits behind the transmission
		sends  []send
		want   []string
	}{
		{"keyed arrival, one waiting", true, []send{{"keyed", 9, PrioControl}}, []string{"0:0", "1200:9", "2400:1"}},
		{"high before, one waiting", true, []send{{"before", 9, PrioControl}}, []string{"0:0", "1200:9", "2400:1"}},
		{"high after, one waiting", true, []send{{"after", 9, PrioControl}}, []string{"0:0", "1200:1", "2400:9"}},
		{"two before", false, []send{{"before", 2, PrioData}, {"before", 9, PrioControl}}, []string{"0:0", "1200:9", "2400:2"}},
		{"low before, high after", false, []send{{"before", 2, PrioData}, {"after", 9, PrioControl}}, []string{"0:0", "1200:2", "2400:9"}},
		{"two after", false, []send{{"after", 2, PrioData}, {"after", 9, PrioControl}}, []string{"0:0", "1200:2", "2400:9"}},
		{"keyed low, high before", false, []send{{"keyed", 2, PrioData}, {"before", 9, PrioControl}}, []string{"0:0", "1200:9", "2400:2"}},
	}
	for _, c := range cases {
		// script drives one transmitter: packet 0 leaves at t=0 and ends
		// at txTime, and the case's sends all land at txTime.
		script := func(eng *sim.Engine, a, b *Host, send func(*Packet)) {
			at := func(when string) {
				for _, s := range c.sends {
					if s.when != when {
						continue
					}
					pkt := data(a, b, s.seq, s.prio)
					if when == "keyed" {
						eng.ScheduleKeyed(txTime, uint64(s.seq), func() { send(pkt) })
					} else {
						eng.ScheduleAt(txTime, func() { send(pkt) })
					}
				}
			}
			eng.ScheduleAt(0, func() {
				at("keyed")
				at("before")
				send(data(a, b, 0, PrioData))
				if c.behind {
					send(data(a, b, 1, PrioData))
				}
				at("after")
			})
		}

		n, a, b, _, got := wire(NewPriority(0), sim.Microsecond)
		script(n.Engine, a, b, a.Send)
		n.Run(sim.Forever)

		ref := &eagerPort{eng: sim.NewEngine(), q: NewPriority(0)}
		script(ref.eng, a, b, ref.send)
		ref.eng.RunAll()

		if !slices.Equal(*got, ref.dequeues) {
			t.Errorf("%s: port dequeued %v, eager reference %v", c.name, *got, ref.dequeues)
		}
		if !slices.Equal(ref.dequeues, c.want) {
			t.Errorf("%s: reference dequeued %v, want %v", c.name, ref.dequeues, c.want)
		}
	}
}

// TestLazyCountersReadClosedForm: with packets sent at known instants on
// an otherwise idle port, next to no completion event ever exists, and an
// observer still reads exactly the closed-form values before, at and
// after the end of each transmission: the busy flag, the transmit
// counters, the end of the last transmission, and the monitor's
// utilization with a window reset at every sample (a transmission is
// booked into the window it ended in, not the one that noticed it).
func TestLazyCountersReadClosedForm(t *testing.T) {
	starts := []sim.Time{0, 5000, 5000 + txTime, 20000} // the third opens the instant the second ends
	n, a, b, nic, _ := wire(NewDropTail(0), sim.Microsecond)
	mon := Attach(nic)
	eng := n.Engine
	for i, at := range starts {
		i := int32(i)
		eng.ScheduleAt(at, func() { a.Send(data(a, b, i, PrioData)) })
	}
	var samples []sim.Time
	for _, at := range starts {
		end := at + txTime
		samples = append(samples, end-1, end, end+1)
	}
	slices.Sort(samples)
	samples = slices.Compact(samples)
	last := sim.Time(0) // previous sample: the start of the monitor's window
	for i, at := range samples {
		at := at
		// A late-band observer sees the instant settled: a transmission
		// that ends at `at` is over, one that starts at `at` is open.
		eng.ScheduleLate(at, sim.SubObserver|uint64(i), func() {
			var done, inWindow int64
			busy := false
			var lastEnd sim.Time
			for _, s := range starts {
				switch end := s + txTime; {
				case end <= at:
					done++
					lastEnd = end
					if end > last {
						inWindow++
					}
				case s <= at:
					busy = true
				}
			}
			if got := nic.Busy(); got != busy {
				t.Errorf("t=%d: Busy() = %v, want %v", at, got, busy)
			}
			if nic.TxPackets != done || nic.TxBytes != done*MSS {
				t.Errorf("t=%d: %d packets %d bytes transmitted, want %d, %d", at, nic.TxPackets, nic.TxBytes, done, done*MSS)
			}
			if end, ever := nic.LastTxEnd(); end != lastEnd || ever != (done > 0) {
				t.Errorf("t=%d: LastTxEnd() = %d, %v, want %d, %v", at, end, ever, lastEnd, done > 0)
			}
			want := float64(inWindow*MSS) / float64((10 * sim.Gbps).BytesIn(at-last))
			if got := mon.Utilization(at); got != want {
				t.Errorf("t=%d: utilization since %d = %v, want %v", at, last, got, want)
			}
			mon.ResetWindow(at)
			last = at
		})
	}
	n.Run(sim.Forever)
	// A send and a delivery per packet. The third send, scheduled before
	// the run, sorts ahead of the second transmission's completion at
	// their shared instant, finds the port busy and so calls for the only
	// completion event of the run.
	if got, want := eng.Executed-eng.ExecutedLate, uint64(2*len(starts)+1); got != want {
		t.Errorf("%d simulation events, want %d", got, want)
	}
	if mon.TotalBytes() != int64(len(starts))*MSS {
		t.Errorf("monitor total %d bytes, want %d", mon.TotalBytes(), len(starts)*MSS)
	}
}

// TestSameInstantObserver: at the instant a transmission ends, an
// auto-band reader scheduled before the dequeue still finds it open and
// one scheduled after finds it booked, as with an eager tx-done between
// them.
func TestSameInstantObserver(t *testing.T) {
	n, a, b, nic, _ := wire(NewDropTail(0), sim.Microsecond)
	eng := n.Engine
	var before, after [2]int64 // busy (0/1), TxPackets
	read := func(into *[2]int64) func() {
		return func() {
			if nic.Busy() {
				into[0] = 1
			}
			into[1] = nic.TxPackets
		}
	}
	eng.ScheduleAt(0, func() {
		eng.ScheduleAt(txTime, read(&before))
		a.Send(data(a, b, 0, PrioData))
		eng.ScheduleAt(txTime, read(&after))
	})
	n.Run(sim.Forever)
	if before != [2]int64{1, 0} || after != [2]int64{0, 1} {
		t.Errorf("reader before the completion saw busy/sent %v, after it %v; want [1 0] and [0 1]", before, after)
	}
}

// TestFaultActionsAroundCompletion: the administrative actions meet an
// open transmission, with and without a completion event pending, and
// the dequeue times and counters come out as the eager port's did.
func TestFaultActionsAroundCompletion(t *testing.T) {
	identity := func(t *testing.T, p *Port) {
		t.Helper()
		busy := int64(0)
		if p.Busy() {
			busy = 1
		}
		if got := p.TxPackets + p.Flushed + int64(p.Queue().Len()) + busy; got != p.Enqueued {
			t.Errorf("at %v: enqueued %d != tx %d + flushed %d + queued %d + busy %d",
				p.shard.eng.Now(), p.Enqueued, p.TxPackets, p.Flushed, p.Queue().Len(), busy)
		}
	}

	t.Run("down during a transmission, packets queued", func(t *testing.T) {
		n, a, b, nic, got := wire(NewDropTail(0), sim.Microsecond)
		eng := n.Engine
		eng.ScheduleAt(0, func() {
			for i := int32(0); i < 3; i++ {
				a.Send(data(a, b, i, PrioData))
			}
		})
		eng.ScheduleAt(600, func() { nic.SetAdminDown(true) })
		eng.ScheduleAt(3000, func() {
			// The in-flight packet finished at 1200; the port parked the rest.
			if nic.Busy() || nic.TxPackets != 1 || nic.Queue().Len() != 2 {
				t.Errorf("parked port: busy %v, sent %d, queued %d; want idle, 1, 2", nic.Busy(), nic.TxPackets, nic.Queue().Len())
			}
			if end, _ := nic.LastTxEnd(); end != txTime {
				t.Errorf("LastTxEnd = %v, want %v", end, txTime)
			}
			identity(t, nic)
		})
		eng.ScheduleAt(5000, func() { nic.SetAdminDown(false) })
		n.Run(sim.Forever)
		if want := []string{"0:0", "5000:1", "6200:2"}; !slices.Equal(*got, want) {
			t.Errorf("dequeues %v, want %v", *got, want)
		}
		identity(t, nic)
	})

	t.Run("down and up again inside one transmission", func(t *testing.T) {
		// Nothing is queued when the port goes down, so no completion is
		// pending; the packet sent while it is down must still leave the
		// moment the open transmission ends.
		n, a, b, nic, got := wire(NewDropTail(0), sim.Microsecond)
		eng := n.Engine
		eng.ScheduleAt(0, func() { a.Send(data(a, b, 0, PrioData)) })
		eng.ScheduleAt(300, func() { nic.SetAdminDown(true) })
		eng.ScheduleAt(600, func() {
			a.Send(data(a, b, 1, PrioData))
			if eng.Pending() != 2 { // packet 0's delivery and the up event
				t.Errorf("%d events pending, want 2: a parked port needs no completion", eng.Pending())
			}
		})
		eng.ScheduleAt(900, func() { nic.SetAdminDown(false) })
		n.Run(sim.Forever)
		if want := []string{"0:0", "1200:1"}; !slices.Equal(*got, want) {
			t.Errorf("dequeues %v, want %v", *got, want)
		}
		identity(t, nic)
	})

	t.Run("up after the transmission ended", func(t *testing.T) {
		n, a, b, nic, got := wire(NewDropTail(0), sim.Microsecond)
		eng := n.Engine
		eng.ScheduleAt(0, func() { a.Send(data(a, b, 0, PrioData)) })
		eng.ScheduleAt(300, func() { nic.SetAdminDown(true) })
		eng.ScheduleAt(600, func() { a.Send(data(a, b, 1, PrioData)) })
		eng.ScheduleAt(4000, func() { nic.SetAdminDown(false) })
		n.Run(sim.Forever)
		if want := []string{"0:0", "4000:1"}; !slices.Equal(*got, want) {
			t.Errorf("dequeues %v, want %v", *got, want)
		}
		if end, _ := nic.LastTxEnd(); end != 4000+txTime {
			t.Errorf("LastTxEnd = %v, want %v", end, 4000+txTime)
		}
	})

	t.Run("flush with a completion pending", func(t *testing.T) {
		n, a, b, nic, got := wire(NewDropTail(0), sim.Microsecond)
		eng := n.Engine
		eng.ScheduleAt(0, func() {
			for i := int32(0); i < 4; i++ {
				a.Send(data(a, b, i, PrioData))
			}
		})
		eng.ScheduleAt(600, func() {
			nic.FlushQueue()
			identity(t, nic)
		})
		eng.ScheduleAt(2000, func() { a.Send(data(a, b, 9, PrioData)) })
		n.Run(sim.Forever)
		if want := []string{"0:0", "2000:9"}; !slices.Equal(*got, want) {
			t.Errorf("dequeues %v, want %v", *got, want)
		}
		if nic.Flushed != 3 || nic.TxPackets != 2 || b.RxPackets != 2 {
			t.Errorf("flushed %d, sent %d, delivered %d; want 3, 2, 2", nic.Flushed, nic.TxPackets, b.RxPackets)
		}
		identity(t, nic)
	})

	t.Run("degraded rate mid-transmission", func(t *testing.T) {
		// The open transmission keeps the rate it started with; the next
		// one serializes at the degraded rate.
		n, a, b, nic, got := wire(NewDropTail(0), sim.Microsecond)
		eng := n.Engine
		eng.ScheduleAt(0, func() {
			a.Send(data(a, b, 0, PrioData))
			a.Send(data(a, b, 1, PrioData))
		})
		eng.ScheduleAt(600, func() { nic.SetDegradedRate(5 * sim.Gbps) })
		eng.ScheduleLate(txTime+2*txTime-1, sim.SubObserver, func() {
			if !nic.Busy() || nic.TxPackets != 1 {
				t.Errorf("one tick before the slow packet ends: busy %v, sent %d; want busy, 1", nic.Busy(), nic.TxPackets)
			}
		})
		n.Run(sim.Forever)
		if want := []string{"0:0", "1200:1"}; !slices.Equal(*got, want) {
			t.Errorf("dequeues %v, want %v", *got, want)
		}
		if end, _ := nic.LastTxEnd(); end != txTime+2*txTime {
			t.Errorf("LastTxEnd = %v, want %v", end, txTime+2*txTime)
		}
	})
}

// TestStoppedRunBooksOnlyWhatPassed: a run stopped in the middle of the
// instant a transmission ends books the completion only if the stopping
// event sorted after it, and a resumed run books the rest.
func TestStoppedRunBooksOnlyWhatPassed(t *testing.T) {
	for _, stopFirst := range []bool{true, false} {
		n, a, b, nic, _ := wire(NewDropTail(0), sim.Microsecond)
		eng := n.Engine
		eng.ScheduleAt(0, func() {
			if stopFirst {
				eng.ScheduleAt(txTime, eng.Stop)
			}
			a.Send(data(a, b, 0, PrioData))
			if !stopFirst {
				eng.ScheduleAt(txTime, eng.Stop)
			}
		})
		if end := n.Run(sim.Forever); end != txTime || !eng.Stopped() {
			t.Fatalf("run ended at %v (stopped %v), want a stop at %v", end, eng.Stopped(), txTime)
		}
		// Network.Run settled what it could; read the fields directly.
		want := int64(1)
		if stopFirst {
			want = 0
		}
		if nic.TxPackets != want || nic.busy != stopFirst {
			t.Errorf("stop before completion = %v: %d transmitted, busy %v; want %d, %v",
				stopFirst, nic.TxPackets, nic.busy, want, stopFirst)
		}
		n.Run(sim.Forever)
		if nic.TxPackets != 1 || nic.busy || b.RxPackets != 1 {
			t.Errorf("after resuming: %d transmitted, busy %v, %d delivered; want 1, idle, 1", nic.TxPackets, nic.busy, b.RxPackets)
		}
	}
}

// TestCrossShardCustody: wire custody of a packet bound for another
// shard moves at the dequeue. At every barrier each shard's conservation
// identity closes, and at quiescence nothing is left on any wire or
// between shards.
func TestCrossShardCustody(t *testing.T) {
	for _, shards := range []int{2, 3} {
		n, a, b := hopLine(shards)
		barriers := 0
		n.BarrierHook = func() {
			barriers++
			queued := make([]int64, shards)
			n.eachPort(func(p *Port) { queued[p.shard.idx] += int64(p.Queue().Len()) })
			for _, s := range n.Shards() {
				in, out := s.Injected+s.PipedIn, s.Delivered+s.Dropped+queued[s.idx]+s.OnWire+s.PipedOut
				if in != out {
					t.Errorf("shards=%d barrier %d shard %d: injected %d + piped in %d != delivered %d + dropped %d + queued %d + on wire %d + piped out %d",
						shards, barriers, s.idx, s.Injected, s.PipedIn, s.Delivered, s.Dropped, queued[s.idx], s.OnWire, s.PipedOut)
				}
			}
		}
		blast(n, a, b, a.Shard(), 500, sim.Forever)
		if barriers == 0 || b.RxPackets != 500 {
			t.Fatalf("shards=%d: %d barriers, %d delivered", shards, barriers, b.RxPackets)
		}
		var left, piped int64
		for _, s := range n.Shards() {
			left += s.OnWire + s.PipedOut - s.PipedIn
			piped += s.PipedOut
			if s.OnWire != 0 {
				t.Errorf("shards=%d: shard %d still has %d packets on its wire", shards, s.idx, s.OnWire)
			}
		}
		if left != 0 || n.OnWire() != 0 {
			t.Errorf("shards=%d: OnWire + PipedOut − PipedIn sums to %d at quiescence, want 0", shards, left)
		}
		if want := int64(500 * (shards - 1)); piped != want {
			t.Errorf("shards=%d: %d packets piped out, want %d", shards, piped, want)
		}
	}
}
