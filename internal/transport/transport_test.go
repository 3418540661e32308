package transport

import (
	"testing"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/stats"
)

func TestPacerSpacing(t *testing.T) {
	e := sim.NewEngine()
	var emissions []sim.Time
	budget := 5
	p := NewPacer(e, 10*sim.Microsecond, func() bool {
		if budget == 0 {
			return false
		}
		budget--
		emissions = append(emissions, e.Now())
		return true
	})
	e.Schedule(0, p.Kick)
	e.RunAll()
	if len(emissions) != 5 {
		t.Fatalf("emitted %d, want 5", len(emissions))
	}
	if emissions[0] != 0 {
		t.Errorf("first emission at %v, want immediate", emissions[0])
	}
	for i := 1; i < len(emissions); i++ {
		if d := emissions[i] - emissions[i-1]; d != 10*sim.Microsecond {
			t.Errorf("spacing %v, want 10µs", d)
		}
	}
}

func TestPacerIdleThenResume(t *testing.T) {
	e := sim.NewEngine()
	var emissions []sim.Time
	ready := false
	p := NewPacer(e, 10*sim.Microsecond, func() bool {
		if !ready {
			return false
		}
		ready = false
		emissions = append(emissions, e.Now())
		return true
	})
	e.Schedule(0, p.Kick) // goes idle immediately
	e.Schedule(100*sim.Microsecond, func() { ready = true; p.Kick() })
	// Resume long after the last emission: should fire immediately.
	e.Schedule(500*sim.Microsecond, func() { ready = true; p.Kick() })
	e.RunAll()
	if len(emissions) != 2 {
		t.Fatalf("emitted %d, want 2", len(emissions))
	}
	if emissions[0] != 100*sim.Microsecond || emissions[1] != 500*sim.Microsecond {
		t.Errorf("emissions at %v", emissions)
	}
}

func TestPacerEnforcesMinimumGap(t *testing.T) {
	e := sim.NewEngine()
	var emissions []sim.Time
	ready := 0
	p := NewPacer(e, 10*sim.Microsecond, func() bool {
		if ready == 0 {
			return false
		}
		ready--
		emissions = append(emissions, e.Now())
		return true
	})
	// Two kicks 1µs apart: second emission must wait for the tick.
	e.Schedule(0, func() { ready++; p.Kick() })
	e.Schedule(sim.Microsecond, func() { ready++; p.Kick() })
	e.RunAll()
	if len(emissions) != 2 {
		t.Fatalf("emitted %d", len(emissions))
	}
	if emissions[1] != 10*sim.Microsecond {
		t.Errorf("second emission at %v, want 10µs", emissions[1])
	}
}

// TestPacerAllocs: a Kick → fire → re-Kick cycle schedules the bound
// fire callback on a pooled event and allocates nothing. Uses the heap
// scheduler so no timing-wheel bucket is sized mid-measurement.
func TestPacerAllocs(t *testing.T) {
	e := sim.NewEngineWith(sim.SchedulerHeap)
	const cycles = 1000
	left := 0
	p := NewPacer(e, 100*sim.Nanosecond, func() bool { left--; return left > 0 })
	run := func() {
		left = cycles
		p.Kick()
		e.RunAll()
	}
	run() // grow the event free list
	if got := testing.AllocsPerRun(10, run); got != 0 {
		t.Errorf("%v allocs per %d Kick/fire cycles, want 0", got, cycles)
	}
}

// TestFIFO checks order, that a hovering queue recycles its blocks
// instead of growing, and that a drained queue keeps one block and gives
// the rest back, all zeroed, so it pins nothing; popping or peeking at
// an empty queue panics.
func TestFIFO(t *testing.T) {
	var q FIFO[*int]
	next, want := 0, 0
	push := func() { v := next; next++; q.Push(&v) }
	pop := func() {
		t.Helper()
		if got := *q.Pop(); got != want {
			t.Fatalf("popped %d, want %d", got, want)
		}
		want++
	}
	// Hover: the queue never empties, so only recycling the blocks the
	// head leaves keeps it from growing.
	for i := 0; i < 8; i++ {
		push()
	}
	for i := 0; i < 1000; i++ {
		pop()
		push()
		if q.Len() != 8 {
			t.Fatalf("Len = %d, want 8", q.Len())
		}
		if got := q.Peek(); *got != want {
			t.Fatalf("Peek = %d, want %d", *got, want)
		}
	}
	if held := fifoEnts(q.pool.blocks.Top()) + fifoEnts(q.head); held > 32 {
		t.Errorf("a queue of 8 holds %d entries of blocks", held)
	}
	for q.Len() > 0 {
		pop()
	}
	if q.head != nil || q.tail == nil || q.tail.next != nil {
		t.Errorf("drained queue did not keep exactly one block: head %p, tail %p", q.head, q.tail)
	}
	for _, b := range []*fifoBlock[*int]{q.tail, q.pool.blocks.Top()} {
		for ; b != nil; b = b.next {
			for _, p := range b.ents {
				if p != nil {
					t.Fatal("a drained queue's block still holds a pointer")
				}
			}
		}
	}
	// Fill-and-drain, the pacer pattern: steady state allocates nothing.
	cycle := func() {
		for i := 0; i < 8; i++ {
			q.Push(nil)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("%v allocs per fill-and-drain cycle, want 0", got)
	}
	for _, op := range []func(){func() { q.Pop() }, func() { q.Peek() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("an empty queue answered Pop or Peek")
				}
			}()
			op()
		}()
	}
	for i := 0; i < 300; i++ {
		push()
	}
	q.Reset()
	if q.Len() != 0 || q.head != nil {
		t.Error("Reset left an element behind")
	}
	for b := q.pool.blocks.Top(); b != nil; b = b.next {
		for _, p := range b.ents {
			if p != nil {
				t.Fatal("Reset left a pointer in a free block")
			}
		}
	}
}

// fifoEnts returns the entries of the block chain starting at b.
func fifoEnts[T any](b *fifoBlock[T]) int {
	n := 0
	for ; b != nil; b = b.next {
		n += len(b.ents)
	}
	return n
}

func TestPacerZeroTickPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero tick did not panic")
		}
	}()
	NewPacer(sim.NewEngine(), 0, func() bool { return false })
}

func newKernelHosts() (*netsim.Network, *netsim.Host, *netsim.Host) {
	n := netsim.New()
	a := n.NewHost("a")
	b := n.NewHost("b")
	sw := n.NewSwitch("s")
	n.Connect(a, sw, 10*sim.Gbps, 0, nil, nil)
	n.Connect(b, sw, 10*sim.Gbps, 0, nil, nil)
	sw.AddRoute(a.ID(), sw.Ports()[0])
	sw.AddRoute(b.ID(), sw.Ports()[1])
	return n, a, b
}

func TestKernelFlowPacketization(t *testing.T) {
	n, a, b := newKernelHosts()
	k := NewKernel(n, Config{})
	f := k.NewFlow(1, a, b, 3001, 0)
	if f.NPkts != 3 {
		t.Fatalf("NPkts = %d, want 3", f.NPkts)
	}
	if k.PktSize(f, 0) != 1500 || k.PktSize(f, 1) != 1500 || k.PktSize(f, 2) != 1 {
		t.Errorf("packet sizes: %d %d %d", k.PktSize(f, 0), k.PktSize(f, 1), k.PktSize(f, 2))
	}
	exact := k.NewFlow(2, a, b, 3000, 0)
	if exact.NPkts != 2 || k.PktSize(exact, 1) != 1500 {
		t.Error("exact multiple mis-packetized")
	}
}

func TestKernelBDPAndBlind(t *testing.T) {
	n, a, b := newKernelHosts()
	k := NewKernel(n, Config{RTT: 100 * sim.Microsecond})
	if got := k.BDPPkts(10 * sim.Gbps); got != 83 {
		// 125000 bytes / 1500 = 83.3 → 83 full packets
		t.Errorf("BDPPkts = %d, want 83", got)
	}
	small := k.NewFlow(1, a, b, 3000, 0)
	if k.BlindPkts(small) != 2 {
		t.Errorf("blind window should cap at flow length")
	}
	k2 := NewKernel(n, Config{RTT: 100 * sim.Microsecond, BlindWindow: 10})
	big := k2.NewFlow(1, a, b, 1_000_000, 0)
	if k2.BlindPkts(big) != 10 {
		t.Errorf("configured blind window not honored")
	}
}

func TestKernelValidation(t *testing.T) {
	n, a, b := newKernelHosts()
	k := NewKernel(n, Config{})
	for _, fn := range []func(){
		func() { k.NewFlow(5, a, b, 0, 0) },   // zero size
		func() { k.NewFlow(6, a, a, 10, 0) },  // self flow
		func() { k.NewFlow(0, a, b, 10, 0) },  // the table is indexed by ID: no zero,
		func() { k.NewFlow(-1, a, b, 10, 0) }, // no negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid flow did not panic")
				}
			}()
			fn()
		}()
	}
	k.NewFlow(7, a, b, 10, 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate id did not panic")
		}
	}()
	k.NewFlow(7, a, b, 10, 0)
}

func TestKernelCompleteRecords(t *testing.T) {
	n, a, b := newKernelHosts()
	col := stats.NewFCTCollector()
	var done *Flow
	k := NewKernel(n, Config{Collector: col, OnDone: func(f *Flow) { done = f }})
	f := k.NewFlow(1, a, b, 1500, 0)
	n.Engine.Schedule(50, func() { k.Complete(f) })
	n.Engine.RunAll()
	if !f.Done || f.End != 50 {
		t.Errorf("completion state wrong: done=%v end=%v", f.Done, f.End)
	}
	if col.Count() != 1 || done != f {
		t.Error("collector/OnDone not invoked")
	}
	defer func() {
		if recover() == nil {
			t.Error("double completion did not panic")
		}
	}()
	k.Complete(f)
}

func TestDispatcherRouting(t *testing.T) {
	n, a, _ := newKernelHosts()
	var toSender, toReceiver []netsim.PacketType
	k := NewKernel(n, Config{})
	k.Bind(Hooks{
		ToSender:   func(p *netsim.Packet) { toSender = append(toSender, p.Type) },
		ToReceiver: func(p *netsim.Packet) { toReceiver = append(toReceiver, p.Type) },
	})
	k.install(a)
	for _, typ := range []netsim.PacketType{netsim.Data, netsim.RTS, netsim.Header, netsim.Grant, netsim.Token, netsim.Pull, netsim.Ack, netsim.Nack} {
		a.Receive(&netsim.Packet{Type: typ, Size: 64})
	}
	if len(toReceiver) != 3 || len(toSender) != 5 {
		t.Errorf("routing split %d/%d, want 3/5", len(toReceiver), len(toSender))
	}
}

func TestFlowString(t *testing.T) {
	n, a, b := newKernelHosts()
	k := NewKernel(n, Config{})
	f := k.NewFlow(3, a, b, 4500, 0)
	if got := f.String(); got != "flow 3 a->b 4500B (3 pkts)" {
		t.Errorf("String() = %q", got)
	}
}
