package transport

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
)

const testRTT = 100 * sim.Microsecond

// fakeStack is the least a stack can be: a kernel plus hooks that log
// what the lifecycle asked of them. Its Start announces and sends the
// blind window like every receiver-driven stack; it never answers, so
// the announce chain only stops when a test says so.
type fakeStack struct {
	Kernel
	log   *[]string  // shared between instances of one run
	rtsAt []sim.Time // when each RTS, first and re-announced, left
}

func newFakeStack(n *netsim.Network, sh *netsim.Shard, log *[]string) *fakeStack {
	s := &fakeStack{Kernel: NewKernel(n, Config{RTT: testRTT, BlindWindow: 2, Shard: sh}), log: log}
	s.Bind(Hooks{
		ToSender:   func(p *netsim.Packet) { s.note("to-sender %v flow %d", p.Type, p.Flow) },
		ToReceiver: func(p *netsim.Packet) { s.note("to-receiver %v flow %d seq %d", p.Type, p.Flow, p.Seq) },
		Start: func(f *Flow) {
			s.note("start flow %d", f.ID)
			s.Announce(f)
			s.SendBlind(f, netsim.PrioData)
		},
		StampRTS:     func(f *Flow, rts *netsim.Packet) { s.rtsAt = append(s.rtsAt, s.Now()) },
		DropReceiver: func(f *Flow) { s.note("drop-receiver flow %d", f.ID) },
		HostCrashed:  func(h *netsim.Host) { s.note("host-crashed %s", h.Name()) },
	})
	return s
}

func (s *fakeStack) note(format string, args ...any) {
	*s.log = append(*s.log, fmt.Sprintf("%d ", s.Now())+fmt.Sprintf(format, args...))
}

// newLifecycleNet is two hosts behind one switch with real link delays,
// so the network has a lookahead and can be partitioned.
func newLifecycleNet() (*netsim.Network, *netsim.Host, *netsim.Host) {
	n := netsim.New()
	a, b, sw := n.NewHost("a"), n.NewHost("b"), n.NewSwitch("s")
	n.Connect(a, sw, 10*sim.Gbps, sim.Microsecond, nil, nil)
	n.Connect(b, sw, 10*sim.Gbps, sim.Microsecond, nil, nil)
	sw.AddRoute(a.ID(), sw.Ports()[0])
	sw.AddRoute(b.ID(), sw.Ports()[1])
	return n, a, b
}

func inRTTs(ts []sim.Time, from sim.Time) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = int((t - from) / testRTT)
	}
	return out
}

// TestAnnounceChainSchedule pins the chain: intervals 3, 6, 12, 24, 48,
// 64, 64 × RTT, stopping at the first tick after the sender hears back
// or learns the flow is done.
func TestAnnounceChainSchedule(t *testing.T) {
	for _, stop := range []string{"heard", "done"} {
		n, a, b := newLifecycleNet()
		var log []string
		s := newFakeStack(n, nil, &log)
		start := 7 * sim.Microsecond
		f := s.AddFlow(1, a, b, 100_000, start)
		n.Engine.Run(start + 230*testRTT)
		want := []int{0, 3, 9, 21, 45, 93, 157, 221}
		if got := inRTTs(s.rtsAt, start); !slices.Equal(got, want) {
			t.Fatalf("%s: RTS sent at %v × RTT after start, want %v", stop, got, want)
		}
		if !f.SenderStarted || s.RTSReannounces != 7 {
			t.Errorf("%s: SenderStarted=%v RTSReannounces=%d, want true, 7", stop, f.SenderStarted, s.RTSReannounces)
		}
		if stop == "heard" {
			f.SenderHeard = true
		} else {
			f.SenderDone = true
		}
		n.Engine.Run(start + 1000*testRTT)
		if len(s.rtsAt) != len(want) || s.RTSReannounces != 7 {
			t.Errorf("%s: chain kept announcing: %d RTS, %d re-announces", stop, len(s.rtsAt), s.RTSReannounces)
		}
		if p := n.Engine.Pending(); p != 0 {
			t.Errorf("%s: %d events still pending after the chain stopped", stop, p)
		}
	}
}

// TestDestinationCrashRearm: a crashed destination restarts the chain
// at 3×RTT and clears SenderHeard, but only for a flow that has started
// and is not done. The original chain's pending tick stays alive beside
// the new one (the v9 behaviour the interval-in-op rule preserves).
func TestDestinationCrashRearm(t *testing.T) {
	n, a, b := newLifecycleNet()
	var log []string
	s := newFakeStack(n, nil, &log)
	running := s.AddFlow(1, a, b, 100_000, 0)
	heard := s.AddFlow(2, a, b, 100_000, 0)
	finished := s.AddFlow(3, a, b, 100_000, 0)
	unstarted := s.AddFlow(4, a, b, 100_000, 50*testRTT)
	n.Engine.Run(10 * testRTT) // ticks at 3 and 9 fired; 21 is pending
	heard.SenderHeard = true
	finished.SenderHeard, finished.SenderDone = true, true
	unstarted.SenderHeard = true // not a state a real run reaches; shows the gate
	s.rtsAt = nil
	s.OnHostCrash(b)
	if running.SenderHeard || heard.SenderHeard {
		t.Error("crash left SenderHeard set on a started, live flow")
	}
	if !finished.SenderHeard || !unstarted.SenderHeard {
		t.Error("crash cleared SenderHeard on a finished or unstarted flow")
	}
	unstarted.SenderHeard = false
	n.Engine.Run(49 * testRTT)
	// Two re-armed chains (flows 1 and 2) at 10+3, +9, +21; flow 1's
	// original chain at 21 and 45; flow 2's original tick at 21 too,
	// since the crash cleared the flag that would have stopped it.
	want := []int{13, 13, 19, 19, 21, 21, 31, 31, 45, 45}
	if got := inRTTs(s.rtsAt, 0); !slices.Equal(got, want) {
		t.Errorf("RTS after crash at %v × RTT, want %v", got, want)
	}
	n.Engine.Run(50 * testRTT)
	if got := inRTTs(s.rtsAt, 0); got[len(got)-1] != 50 {
		t.Errorf("unstarted flow announced at %v × RTT, want its scheduled start 50", got[len(got)-1])
	}
}

// countSuffix counts the log lines ending in suffix.
func countSuffix(log []string, suffix string) (n int) {
	for _, l := range log {
		if strings.HasSuffix(l, suffix) {
			n++
		}
	}
	return n
}

// TestCrashPassOwnershipMatrix splits two hosts over two shards, one
// instance each, and crashes a: every flow half is dropped by exactly
// the instance owning it, and each instance hears HostCrashed once. The
// outgoing flow's sender is dead; the completed one's stays live (the
// crash pass marks only a sender the completion signal has not reached).
func TestCrashPassOwnershipMatrix(t *testing.T) {
	n, a, b := newLifecycleNet()
	n.Partition(2, func(node netsim.Node) int {
		if node == netsim.Node(b) {
			return 1
		}
		return 0
	})
	var logA, logB []string
	sa, sb := newFakeStack(n, n.Shard(0), &logA), newFakeStack(n, n.Shard(1), &logB)
	add := func(id netsim.FlowID, src, dst *netsim.Host) *Flow {
		from, to := sa, sb
		if src == b {
			from, to = sb, sa
		}
		f := from.AddPending(id, src, dst, 100_000, false)
		to.Adopt(f)
		f.SenderStarted = true
		return f
	}
	out := add(1, a, b)  // a sends: dies on both sides
	in := add(2, b, a)   // a receives: receiver state dropped, sender re-announces
	over := add(3, a, b) // already complete: untouched
	over.Done, over.SenderDone, over.Outcome = true, true, OutcomeCompleted
	in.SenderHeard = true

	sa.OnHostCrash(a)
	sb.OnHostCrash(a)

	wantA := []string{"0 drop-receiver flow 2", "0 host-crashed a"}
	wantB := []string{"0 drop-receiver flow 1", "0 host-crashed a"}
	if !slices.Equal(logA, wantA) {
		t.Errorf("instance owning a: %q, want %q", logA, wantA)
	}
	if !slices.Equal(logB, wantB) {
		t.Errorf("instance owning b: %q, want %q", logB, wantB)
	}
	if !out.Done || out.Outcome != OutcomeKilledByCrash || !out.SenderDone || !out.SenderDead || sa.Sender(out.ID) != nil {
		t.Errorf("outgoing flow: done=%v outcome=%v senderDone=%v senderDead=%v, want killed on both sides", out.Done, out.Outcome, out.SenderDone, out.SenderDead)
	}
	if in.Done || in.SenderDone || in.SenderHeard || in.SenderDead || sb.Sender(in.ID) != in {
		t.Errorf("incoming flow: done=%v senderDone=%v heard=%v senderDead=%v, want alive and re-announcing", in.Done, in.SenderDone, in.SenderHeard, in.SenderDead)
	}
	if over.Outcome != OutcomeCompleted || over.SenderDead || sa.Sender(over.ID) != over {
		t.Errorf("completed flow: outcome %v, senderDead=%v; want completed and its sender still answering", over.Outcome, over.SenderDead)
	}
	if sb.Sender(out.ID) != nil || sa.Sender(in.ID) != nil {
		t.Error("a sender found through the instance that does not own it")
	}
	// Only the sender-side instance of the incoming flow armed a chain.
	if pa, pb := sa.Engine().Pending(), sb.Engine().Pending(); pa != 0 || pb != 1 {
		t.Errorf("pending events a=%d b=%d, want 0 and 1 (the re-armed chain)", pa, pb)
	}
}

// TestSendCursor pins the sender side every grant handler shares: the
// blind window sets the cursor, a resend past it advances it and one
// below it does not, new sends stop at NPkts, and the Sender lookup
// answers only for a started, responsive sender its source's crash did
// not kill. Steps: a sequence ≥ 0 is ResendData of it, -1 is NextData;
// built lists each step's packet sequence, -1 for none.
func TestSendCursor(t *testing.T) {
	const newData = -1
	cases := []struct {
		name         string
		pkts         int64 // flow length in MSS packets; the blind window is 2
		late, mute   bool  // start after the steps; unresponsive
		crash, after bool  // crash the source before the steps; after SenderDone
		steps, built []int32
		next         int32
		found        bool
	}{
		{name: "blind window sets it", pkts: 10, next: 2, found: true},
		{name: "blind window capped at the flow", pkts: 1, next: 1, found: true},
		{name: "resend past it advances it", pkts: 10, steps: []int32{5}, built: []int32{5}, next: 6, found: true},
		{name: "resend at it advances it", pkts: 10, steps: []int32{2}, built: []int32{2}, next: 3, found: true},
		{name: "resend below it does not", pkts: 10, steps: []int32{1, 0}, built: []int32{1, 0}, next: 2, found: true},
		{name: "new data resumes past a resend", pkts: 10, steps: []int32{5, newData}, built: []int32{5, 6}, next: 7, found: true},
		{name: "new sends stop at NPkts", pkts: 4, steps: []int32{newData, newData, newData}, built: []int32{2, 3, -1}, next: 4, found: true},
		{name: "unstarted", pkts: 10, late: true},
		{name: "unresponsive", pkts: 10, mute: true},
		{name: "crashed", pkts: 10, crash: true, next: 2},
		{name: "crashed after completion", pkts: 10, crash: true, after: true, next: 2, found: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, a, b := newLifecycleNet()
			var log []string
			s := newFakeStack(n, nil, &log)
			start := sim.Time(0)
			if tc.late {
				start = testRTT
			}
			f := s.AddFlow(1, a, b, tc.pkts*netsim.MSS, start)
			f.Unresponsive = tc.mute
			n.Engine.Run(0)
			if tc.crash {
				f.SenderDone = tc.after
				s.OnHostCrash(a)
			}
			var built []int32
			for _, step := range tc.steps {
				var pkt *netsim.Packet
				if step == newData {
					pkt = s.NextData(f, netsim.PrioData)
				} else {
					pkt = s.ResendData(f, step, netsim.PrioData)
				}
				seq := int32(-1)
				if pkt != nil {
					seq = pkt.Seq
				}
				built = append(built, seq)
			}
			if !slices.Equal(built, tc.built) || f.SendNext != tc.next {
				t.Errorf("built %v, cursor %d; want %v, %d", built, f.SendNext, tc.built, tc.next)
			}
			var want *Flow
			if tc.found {
				want = f
			}
			if got := s.Sender(f.ID); got != want {
				t.Errorf("Sender = %v, want %v", got, want)
			}
		})
	}
	var log []string
	n, _, _ := newLifecycleNet()
	if s := newFakeStack(n, nil, &log); s.Sender(1) != nil || s.Sender(-1) != nil {
		t.Error("Sender found a flow the kernel does not know")
	}
}

// TestSplitRegistrationEqualsAddFlow: AddPending + Release on the source
// instance and Adopt on the destination's produce the same run as
// AddFlow on one instance.
func TestSplitRegistrationEqualsAddFlow(t *testing.T) {
	run := func(split bool) []string {
		n, a, b := newLifecycleNet()
		var log []string
		src := newFakeStack(n, nil, &log)
		if split {
			dst := newFakeStack(n, nil, &log)
			f := src.AddPending(1, a, b, 4000, false)
			dst.Adopt(f)
			src.Release(f, 5*sim.Microsecond)
			g := dst.AddPending(2, b, a, 4000, true)
			src.Adopt(g)
			dst.Release(g, 9*sim.Microsecond)
		} else {
			src.AddFlow(1, a, b, 4000, 5*sim.Microsecond)
			src.AddUnresponsiveFlow(2, b, a, 4000, 9*sim.Microsecond)
		}
		n.Engine.Run(4 * testRTT)
		return log
	}
	one, two := run(false), run(true)
	if len(one) == 0 || !slices.Equal(one, two) {
		t.Errorf("split registration diverged:\n one instance: %q\n two instances: %q", one, two)
	}
	// Flow 1 announces and sends its 2-packet blind window; flow 2 is
	// unresponsive and only announces. Each re-announces once at 3×RTT.
	if got := countSuffix(one, "seq -1"); got != 4 {
		t.Errorf("%d RTS delivered, want 4", got)
	}
	if got := countSuffix(one, "to-receiver DATA flow 1 seq 1"); got != 1 {
		t.Errorf("blind window's last packet delivered %d times, want 1", got)
	}
	if got := countSuffix(one, "flow 2 seq 0"); got != 0 {
		t.Errorf("unresponsive flow delivered %d data packets", got)
	}
}

// TestRecvTimerIntervals: RTT while progressing, then 2, 4, … 64, 64 ×
// RTT under BackOff, and back to RTT after Reset.
func TestRecvTimerIntervals(t *testing.T) {
	n, _, _ := newLifecycleNet()
	k := NewKernel(n, Config{RTT: testRTT})
	var tm RecvTimer
	var fired []sim.Time
	backOff := true
	tm.Init(&k, sim.Func(func() {
		fired = append(fired, k.Now())
		if backOff {
			tm.BackOff()
		} else {
			tm.Reset()
		}
		tm.Arm()
	}))
	tm.Arm()
	n.Engine.Run((1 + 2 + 4 + 8 + 16 + 32 + 64 + 64) * testRTT)
	backOff = false
	n.Engine.Run((1 + 2 + 4 + 8 + 16 + 32 + 64 + 64 + 64 + 1 + 1) * testRTT)
	tm.Cancel()
	var gaps []int
	last := sim.Time(0)
	for _, at := range fired {
		gaps = append(gaps, int((at-last)/testRTT))
		last = at
	}
	want := []int{1, 2, 4, 8, 16, 32, 64, 64, 64, 1, 1}
	if !slices.Equal(gaps, want) {
		t.Errorf("check intervals %v × RTT, want %v", gaps, want)
	}
	if n.Engine.Run(sim.Forever); len(fired) != len(want) {
		t.Errorf("cancelled timer fired again")
	}
}

// TestLifecycleAllocs: the start event and the announce ticks are typed
// events on the kernel, so releasing, starting and announcing a flow
// allocates nothing, and registering one allocates only the Flow (plus
// the flow table's amortized growth).
func TestLifecycleAllocs(t *testing.T) {
	n, a, b := newLifecycleNet()
	s := &fakeStack{Kernel: NewKernel(n, Config{RTT: testRTT, BlindWindow: 2})}
	s.Bind(Hooks{ // no logging: the hooks themselves must not allocate
		ToSender: func(*netsim.Packet) {}, ToReceiver: func(*netsim.Packet) {},
		Start: func(f *Flow) { s.Announce(f); s.SendBlind(f, netsim.PrioData) },
	})
	const runs = 200
	id := netsim.FlowID(0)
	register := testing.AllocsPerRun(runs, func() {
		id++
		s.AddPending(id, a, b, 100_000, false)
	})
	if register >= 2 {
		t.Errorf("registering a flow: %.1f allocs, want the Flow alone", register)
	}
	next := 0
	flows := s.OrderedFlows()
	started := testing.AllocsPerRun(runs, func() {
		s.Release(flows[next], s.Now())
		next++
		n.Engine.Run(s.Now() + 10*testRTT) // start, RTS, blind window, ticks at 3 and 9
	})
	if started != 0 {
		t.Errorf("release + start + announce: %.1f allocs per flow, want 0", started)
	}
	if s.RTSReannounces < 2*runs {
		t.Errorf("only %d re-announces: the measured path did not run", s.RTSReannounces)
	}
}

// TestSignalAllocs: the two cross-shard signals a flow costs — Heard
// when its receiver record is made, SenderDone at completion — are typed
// events on the kernel carrying the flow, so neither allocates: not the
// keyed local event of one shard, not the outbox record of two. Each
// still does its job on the sender's side.
func TestSignalAllocs(t *testing.T) {
	const runs = 200
	for _, shards := range []int{1, 2} {
		n, a, b := newLifecycleNet()
		n.Partition(shards, func(node netsim.Node) int {
			if node == netsim.Node(b) {
				return shards - 1
			}
			return 0
		})
		k := NewKernel(n, Config{RTT: testRTT, Shard: b.Shard()}) // the receiver's side
		flows := make([]*Flow, runs+1)                            // AllocsPerRun adds a warm-up call
		for i := range flows {
			flows[i] = k.NewFlow(netsim.FlowID(i+1), a, b, 1000, 0)
		}
		next := 0
		signal := func() {
			f := flows[next]
			next++
			k.Heard(f)
			k.Complete(f)
		}
		// A first round, sent from an event as a stack would, grows the
		// event free chain (one shard) or the outbox (two) to working size
		// and shows the signals arrive.
		b.Shard().Eng().ScheduleAt(0, func() {
			for range flows {
				signal()
			}
		})
		n.Run(testRTT)
		for _, f := range flows {
			if !f.SenderHeard || !f.SenderDone {
				t.Fatalf("shards=%d: flow %d heard %v, sender-done %v after the signals ran", shards, f.ID, f.SenderHeard, f.SenderDone)
			}
			f.Done = false // Complete refuses a second call
		}
		next = 0
		if got := testing.AllocsPerRun(runs, signal); got != 0 {
			t.Errorf("shards=%d: Heard + Complete allocate %.2f times per flow, want 0", shards, got)
		}
	}
}

// timeoutCounter stands in for a stack's receiver record: it is its own
// timer event, and re-arms like a record whose flow makes progress.
type timeoutCounter struct {
	tm    RecvTimer
	fired int
}

func (c *timeoutCounter) HandleEvent(int32, any) {
	c.fired++
	c.tm.Arm()
}

// TestRecvTimerAllocs: binding a receiver timer to its record and
// re-arming it every RTT allocate nothing.
func TestRecvTimerAllocs(t *testing.T) {
	n, _, _ := newLifecycleNet()
	k := NewKernel(n, Config{RTT: testRTT})
	n.Engine.Run(testRTT) // the first event slab
	recs := make([]timeoutCounter, 101)
	next := 0
	got := testing.AllocsPerRun(100, func() {
		c := &recs[next]
		next++
		c.tm.Init(&k, c)
		c.tm.Arm()
		n.Engine.Run(k.Now() + 10*testRTT)
		c.tm.Cancel()
		if c.fired != 10 {
			t.Fatalf("timer fired %d times in 10 RTTs", c.fired)
		}
	})
	if got != 0 {
		t.Errorf("binding and arming a receiver timer: %.2f allocs, want 0", got)
	}
}

// TestFlowSlabAllocs: flow records come from chunks that double from 2
// to 64, so a thousand flows cost twenty mallocs for their records
// (2+4+…+64 = 126 flows in six, the other 874 in fourteen) and a
// three-flow figure run two — and every record is its own. A kernel
// that reserves its flows (Kernel.Reserve, as every run does) pays three
// mallocs for them at any count: one array of records, the flow index
// and the creation order (the start events' chunk comes when the starts
// are scheduled); flows past the reservation fall back to chunks of 64,
// twice the reservation capped.
func TestFlowSlabAllocs(t *testing.T) {
	n, a, b := newLifecycleNet()
	for _, c := range []struct{ flows, reserve, max int }{
		{1000, 0, 20}, {3, 0, 2}, {1000, 1000, 3}, {3, 3, 3}, {1000, 900, 3 + 2},
	} {
		kernels := make([]Kernel, 2) // AllocsPerRun adds a warm-up call
		for i := range kernels {
			kernels[i] = NewKernel(n, Config{RTT: testRTT})
			if c.reserve == 0 {
				// Size the flow table up front so only the records allocate.
				kernels[i].flows.recs = grown(kernels[i].flows.recs, c.flows+1)
				kernels[i].ordered = make([]*Flow, 0, c.flows)
			}
		}
		next := 0
		got := testing.AllocsPerRun(1, func() {
			k := &kernels[next]
			next++
			if c.reserve > 0 {
				k.Reserve(c.reserve, c.flows, netsim.FlowID(c.flows))
			}
			for i := 0; i < c.flows; i++ {
				k.NewFlow(netsim.FlowID(i+1), a, b, int64(1000+i), 0)
			}
		})
		if got > float64(c.max) {
			t.Errorf("%d flows, %d reserved: %.0f mallocs, want at most %d", c.flows, c.reserve, got, c.max)
		}
		seen := map[*Flow]bool{}
		for i, f := range kernels[1].OrderedFlows() {
			if seen[f] || f.Size != int64(1000+i) || f.Src != a || f.Dst != b || f.Done || f.SenderHeard {
				t.Fatalf("%d flows: record %d is shared or misfilled: %+v", c.flows, i, f)
			}
			seen[f] = true
		}
	}
}
