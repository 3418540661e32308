package netsim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"amrt/internal/sim"
)

// streams returns the set of jitter streams n's ports hold.
func streams(n *Network) map[*jitterStream]bool {
	set := map[*jitterStream]bool{}
	n.eachPort(func(p *Port) {
		if p.jit != nil {
			set[p.jit] = true
		}
	})
	return set
}

// recycled reports whether every stream of next came from prev: the
// network built after prev's release minted none.
func recycled(prev, next map[*jitterStream]bool) bool {
	for r := range next {
		if !prev[r] {
			return false
		}
	}
	return len(next) > 0
}

// pingPong sends count packets each way between a and b, taking each
// from the free list of its source's shard, and runs to quiescence.
func pingPong(n *Network, a, b *Host, count int) {
	for i := 0; i < count; i++ {
		for _, d := range [2][2]*Host{{a, b}, {b, a}} {
			pkt := d[0].Shard().NewPacket()
			pkt.Flow, pkt.Type, pkt.Seq = 1, Data, int32(i)
			pkt.Size, pkt.Src, pkt.Dst = MSS, d[0].ID(), d[1].ID()
			d[0].Send(pkt)
		}
	}
	n.Run(sim.Forever)
}

// star builds hosts H0..Hk-1 on one switch, with link jitter on: a shape
// (and a set of port names) other than hopLine's.
func star(k int) (*Network, []*Host) {
	const rate, delay = 10 * sim.Gbps, 1 * sim.Microsecond
	n := New()
	n.SetJitter(rate.TxTime(MSS)/2, 7)
	sw := n.NewSwitch("S")
	hosts := make([]*Host, k)
	for i := range hosts {
		hosts[i] = n.NewHost("H" + string(rune('0'+i)))
		_, down := n.Connect(hosts[i], sw, rate, delay, NewDropTail(0), NewDropTail(0))
		sw.AddRoute(hosts[i].ID(), down)
	}
	return n, hosts
}

// streamErrors reports every port whose jitter stream does not continue
// exactly where a new generator seeded the way the port seeds its own
// would, after the port's linkSeq draws (one per delivery it scheduled).
// It reads the port's next draws through Port.jitter, past the end of
// its buffered batch, and the reference through math/rand's own Int63n.
func streamErrors(n *Network) []string {
	var bad []string
	max := int64(n.jitterMax)
	n.eachPort(func(p *Port) {
		if p.jit == nil {
			return
		}
		ref := sim.NewRNG(sim.SubSeed(n.jitterSeed, "jitter."+p.Name()))
		for i := uint64(0); i < p.linkSeq; i++ {
			ref.Int63n(max)
		}
		for i := 0; i < 2*jitterBatch+1; i++ {
			if got, want := p.jitter(), sim.Time(ref.Int63n(max))+1; got != want {
				bad = append(bad, p.Name())
				return
			}
		}
	})
	return bad
}

// TestJitterStreamMatchesInt63n: with jitter bounded by one, by a
// power of two, and by a small and a large non-power of two (the last
// rejecting a quarter of all values, and small enough that three hops'
// worth cannot overflow the clock), every port of a network that has
// carried traffic draws — through Port.jitter and past the end of its
// buffered batch — exactly what math/rand's Int63n returns. Each network
// after the first runs on the streams its predecessor released,
// re-armed for another bound with draws still buffered.
func TestJitterStreamMatchesInt63n(t *testing.T) {
	for _, max := range []sim.Time{1, 2, 600, 1 << 20, 1<<61 + 1} {
		n, a, b := hopLine(1)
		n.SetJitter(max, 5)
		pingPong(n, a, b, 20)
		if bad := streamErrors(n); len(bad) > 0 {
			t.Errorf("max %d: ports %v drew other than math/rand's Int63n", max, bad)
		}
		n.Release()
	}
}

// TestReleasedStreamsReplayFresh: a network is run and released, and an
// identical one built after it runs on the recycled streams. Both
// deliver at the same instants, and every port of either draws exactly
// the stream a new sim.NewRNG(sim.SubSeed(...)) generator would.
func TestReleasedStreamsReplayFresh(t *testing.T) {
	run := func() (*Network, []sim.Time) {
		n, a, b := hopLine(1)
		var at []sim.Time
		a.Handler = func(*Packet) { at = append(at, n.Engine.Now()) }
		b.Handler = a.Handler
		pingPong(n, a, b, 100)
		if bad := streamErrors(n); len(bad) > 0 {
			t.Errorf("ports %v drew other than a new stream", bad)
		}
		return n, at
	}
	first, want := run()
	gens := streams(first)
	first.Release()
	second, got := run()
	if !recycled(gens, streams(second)) {
		t.Error("the second network minted streams, want all of the first's recycled")
	}
	second.Release()
	if len(got) != 200 || len(got) != len(want) {
		t.Fatalf("delivered %d then %d packets, want 200 each", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d at %v on recycled streams, %v on the first network", i, got[i], want[i])
		}
	}
}

// TestJitterRecycleAllocs is the allocation guard of the jitter free
// list: once a network of some shape has been released, building,
// running and releasing more of that shape — one partitioned, whose two
// shard goroutines take side by side — mints no stream.
func TestJitterRecycleAllocs(t *testing.T) {
	for _, shards := range []int{1, 2} {
		var prev map[*jitterStream]bool
		for i := 0; i < 5; i++ {
			n, a, b := hopLine(shards)
			pingPong(n, a, b, 5)
			gens := streams(n)
			if i > 0 && !recycled(prev, gens) {
				t.Errorf("shards=%d run %d: minted streams, want all of run %d's recycled", shards, i, i-1)
			}
			n.Release()
			prev = gens
		}
	}
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	fn()
}

// TestReleasedNetworkPanics: a released network refuses to run and to
// draw jitter — its streams belong to other networks now, buffered
// draws and all — and a second Release is harmless.
func TestReleasedNetworkPanics(t *testing.T) {
	n, a, b := hopLine(1)
	pingPong(n, a, b, 3)
	if s := a.NIC().jit; s == nil || s.pos == jitterBatch {
		t.Fatal("A's NIC has no buffered draws left before Release, want some")
	}
	n.Release()
	n.Release()
	mustPanic(t, "Run after Release", func() { n.Run(sim.Forever) })
	pkt := a.Shard().NewPacket()
	pkt.Type, pkt.Size, pkt.Src, pkt.Dst = Data, MSS, a.ID(), b.ID()
	mustPanic(t, "a jitter draw after Release", func() { a.Send(pkt) })
}

// TestJitterFreeListConcurrent: two goroutines build, run and release
// networks of different shapes — one of them partitioned, so its shard
// goroutines take streams side by side too — 50 times each, and
// every stream still matches its fresh reference. Run it under -race.
func TestJitterFreeListConcurrent(t *testing.T) {
	const rounds = 50
	shapes := []func() *Network{
		func() *Network {
			n, a, b := hopLine(2)
			pingPong(n, a, b, 20)
			return n
		},
		func() *Network {
			n, h := star(6)
			for i := 0; i < 10; i++ {
				for j, src := range h {
					pkt := src.Shard().NewPacket()
					pkt.Flow, pkt.Type, pkt.Seq = FlowID(j+1), Data, int32(i)
					pkt.Size, pkt.Src, pkt.Dst = MSS, src.ID(), h[(j+1)%len(h)].ID()
					src.Send(pkt)
				}
			}
			n.Run(sim.Forever)
			return n
		},
	}
	var wg sync.WaitGroup
	for _, shape := range shapes {
		wg.Add(1)
		go func(shape func() *Network) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := shape()
				if bad := streamErrors(n); len(bad) > 0 {
					t.Errorf("round %d: ports %v drew other than a new stream", i, bad)
					return
				}
				n.Release()
			}
		}(shape)
	}
	wg.Wait()
}

// TestSetJitterAfterDrawPanics: jitter may be set and re-set while no
// port has drawn; once one has — and on a released network — SetJitter
// panics, since the draws a stream buffered under the old bound cannot
// be re-drawn under a new one.
func TestSetJitterAfterDrawPanics(t *testing.T) {
	n, a, b := hopLine(1)
	n.SetJitter(sim.Nanosecond, 3)
	n.SetJitter(10*sim.Nanosecond, 1)
	pingPong(n, a, b, 1)
	mustPanic(t, "SetJitter after a draw", func() { n.SetJitter(10*sim.Nanosecond, 1) })
	n.Release()
	mustPanic(t, "SetJitter after Release", func() { n.SetJitter(10*sim.Nanosecond, 1) })
}

// BenchmarkJitterDraw draws one delivery's jitter from 768 ports — a
// k=8 fat-tree's worth of streams — in random port order, so the
// per-port state is as cold as on a fabric-wide run.
func BenchmarkJitterDraw(b *testing.B) {
	const ports = 768
	n := New()
	n.SetJitter((10*sim.Gbps).TxTime(MSS)/2, 1)
	sw := n.NewSwitch("S")
	ps := make([]*Port, ports)
	for i := range ps {
		ps[i], _ = n.Connect(n.NewHost(fmt.Sprintf("h%d", i)), sw, 10*sim.Gbps, sim.Microsecond, nil, nil)
	}
	order := make([]*Port, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := range order {
		order[i] = ps[rng.Intn(ports)]
	}
	for _, p := range ps {
		p.jitter() // take every stream before the clock starts
	}
	b.ResetTimer()
	var sum sim.Time
	for i := 0; i < b.N; i++ {
		sum += order[i&(len(order)-1)].jitter()
	}
	if sum == 0 {
		b.Fatal("no jitter drawn")
	}
	b.StopTimer()
	n.Release()
}
