package phost

import (
	"testing"
	"unsafe"

	"amrt/internal/netsim"
	"amrt/internal/sim"
	"amrt/internal/topo"
	"amrt/internal/transport"
)

// TestRecordEntrySizes: the incarnation a token expiry carries fits the
// padding after its sequence number.
func TestRecordEntrySizes(t *testing.T) {
	if size := unsafe.Sizeof(expiryEnt{}); size != 32 {
		t.Errorf("an expiryEnt is %d bytes, want 32", size)
	}
}

// staleExpiry is what flow B's record and the instance look like once
// the expiry queue has passed the entries of a record that ended.
type staleExpiry struct {
	rcvd, inflight            int32
	tokensSent, tokensExpired int64
	events                    uint64
}

// snapshot reads b and p.
func snapshot(s *topo.Fabric, p *Protocol, b *rcvFlow) staleExpiry {
	return staleExpiry{b.rcvd.Count(), b.inflight.Count(), p.TokensSent, p.TokensExpired, s.Net.Engine.Executed}
}

// newStaleFan registers three 8-packet flows, C (S1→R1) and A, B
// (S0→R0), that never start, and builds C's and A's records at time 0:
// both blind windows are in the expiry queue, C's ahead, so A's entries
// stay queued when A's record ends.
func newStaleFan(t *testing.T) (s *topo.Fabric, p *Protocol, fa, fb *transport.Flow, a *rcvFlow) {
	s, p = newFan(2)
	fc := p.AddPending(1, s.Senders[1], s.Receivers[1], 8*netsim.MSS, false)
	fa = p.AddPending(2, s.Senders[0], s.Receivers[0], 8*netsim.MSS, false)
	fb = p.AddPending(3, s.Senders[0], s.Receivers[0], 8*netsim.MSS, false)
	for _, f := range []*transport.Flow{fc, fa, fb} {
		p.Adopt(f)
	}
	transport.Receiver(&p.Kernel, &p.receivers, fc.ID, p.newRcvFlow)
	a = transport.Receiver(&p.Kernel, &p.receivers, fa.ID, p.newRcvFlow)
	if a.inflight.Count() != fa.NPkts {
		t.Fatalf("A has %d packets in flight, want its whole %d-packet blind window", a.inflight.Count(), fa.NPkts)
	}
	return s, p, fa, fb, a
}

// runStaleExpiry: 10 µs in, all of A's data arrives by hand and A
// completes. Flow B's record is built at the same instant: after A
// completes, when it is A's old record, or else just before, when it is
// a fresh one. B's blind window goes in flight, on the same sequences
// A's dead entries name. The run stops 5 µs past A's deadline, before
// B's.
func runStaleExpiry(t *testing.T, reuse bool) staleExpiry {
	s, p, fa, fb, a := newStaleFan(t)
	s.Net.Run(10 * sim.Microsecond)
	var b *rcvFlow
	if !reuse {
		b = transport.Receiver(&p.Kernel, &p.receivers, fb.ID, p.newRcvFlow)
	}
	for seq := int32(0); seq < fa.NPkts; seq++ {
		fa.Dst.Receive(p.NewData(fa, seq, netsim.PrioData))
	}
	if !fa.Done {
		t.Fatal("A did not complete")
	}
	if reuse {
		b = transport.Receiver(&p.Kernel, &p.receivers, fb.ID, p.newRcvFlow)
	}
	if (b == a) != reuse {
		t.Fatalf("reuse %v, but B's record is A's: %v", reuse, b == a)
	}
	timeout := TimeoutRTTs * p.Cfg.RTT
	s.Net.Run(timeout + 5*sim.Microsecond)
	return snapshot(s, p, b)
}

// TestStaleTokenExpiry: the entries of a record that ended are dead by
// their incarnation, also when another flow has the record by the time
// the queue reaches them: B ends up exactly as it does with a fresh
// record, its blind window still in flight.
func TestStaleTokenExpiry(t *testing.T) {
	fresh, reused := runStaleExpiry(t, false), runStaleExpiry(t, true)
	if reused != fresh {
		t.Errorf("B with A's record: %+v; with a fresh one: %+v", reused, fresh)
	}
	if fresh.inflight != 8 {
		t.Errorf("fresh record: %+v; want B's 8 blind packets in flight", fresh)
	}
}

// runCrashRebuild: 10 µs in, A's receiver crashes, which ends its
// record with the blind window's entries still queued behind C's, and
// the rebuild (as the re-announced RTS would do it) makes A a record
// whose blind window is in flight again, on the same sequences. With
// reuse the rebuild gets the old record back; else it gets a fresh one,
// as B's lookup takes the old one first (with a build that only names
// the flow, so it adds no entry and no event). The run stops 5 µs past
// the old entries' deadline, before the new ones'.
func runCrashRebuild(t *testing.T, reuse bool) staleExpiry {
	s, p, fa, fb, a := newStaleFan(t)
	s.Net.Run(10 * sim.Microsecond)
	p.OnHostCrash(fa.Dst)
	if p.receivers.Get(fa.ID) != nil {
		t.Fatal("the crash left A's record")
	}
	if !reuse {
		transport.Receiver(&p.Kernel, &p.receivers, fb.ID, func(r *rcvFlow, f *transport.Flow) { r.f = f })
	}
	r := transport.Receiver(&p.Kernel, &p.receivers, fa.ID, p.newRcvFlow)
	if (r == a) != reuse {
		t.Fatalf("reuse %v, but the rebuilt record is the old one: %v", reuse, r == a)
	}
	timeout := TimeoutRTTs * p.Cfg.RTT
	s.Net.Run(timeout + 5*sim.Microsecond)
	return snapshot(s, p, r)
}

// TestCrashRebuildStaleExpiry: a receiver crash and rebuild of the same
// flow can hand it its old record back; the old life's entries stay
// dead, so the rebuilt window is not expired early, and the run is the
// one a fresh record gives.
func TestCrashRebuildStaleExpiry(t *testing.T) {
	fresh, reused := runCrashRebuild(t, false), runCrashRebuild(t, true)
	if reused != fresh {
		t.Errorf("A rebuilt on its old record: %+v; on a fresh one: %+v", reused, fresh)
	}
	if fresh.inflight != 8 {
		t.Errorf("fresh record: %+v; want A's 8 rebuilt blind packets in flight", fresh)
	}
}
