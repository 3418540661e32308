package core

import (
	"testing"
	"unsafe"

	"amrt/internal/netsim"
	"amrt/internal/transport"
)

// TestRecordEntrySizes: the incarnation a queued recovery request
// carries fits the padding after its sequence number.
func TestRecordEntrySizes(t *testing.T) {
	if size := unsafe.Sizeof(recReq{}); size != 16 {
		t.Errorf("a recReq is %d bytes, want 16", size)
	}
}

// staleRecovery is what flow B's record looks like after the recovery
// pacer drained requests queued for flow A's record, which ended first.
type staleRecovery struct {
	rcvd, reissued, inRecovery int32
	recoveryGrants             int64
	events                     uint64
}

// runStaleRecovery: flow A (never sent, so every packet is a hole)
// queues its holes on the recovery pacer at its fourth timeout tick,
// the pacer sends one, and then all of A's data arrives by hand, so A
// completes with the rest still queued. Flow B's record is built at the
// same instant: after A completes, when it is A's old record, or else
// just before, when it is a fresh one. Half an RTT later the queue has
// drained.
func runStaleRecovery(t *testing.T, reuse bool) staleRecovery {
	s, p := newFan(1)
	var fs [2]*transport.Flow
	for i := range fs {
		fs[i] = p.AddPending(netsim.FlowID(i+1), s.Senders[0], s.Receivers[0], 20*netsim.MSS, false)
		p.Adopt(fs[i])
	}
	fa, fb := fs[0], fs[1]
	a := transport.Receiver(&p.Kernel, &p.receivers, fa.ID, p.newReceiver)
	s.Net.Run(4 * p.Cfg.RTT)
	if p.RecoveryGrants != 1 || int(a.inRecovery.Count()) != RecoveryCap-1 {
		t.Fatalf("after A's fourth tick: %d recovery grants, %d queued; want 1 and %d",
			p.RecoveryGrants, a.inRecovery.Count(), RecoveryCap-1)
	}
	var b *receiver
	if !reuse {
		b = transport.Receiver(&p.Kernel, &p.receivers, fb.ID, p.newReceiver)
	}
	for seq := int32(0); seq < fa.NPkts; seq++ {
		fa.Dst.Receive(p.NewData(fa, seq, netsim.PrioData))
	}
	if !fa.Done {
		t.Fatal("A did not complete")
	}
	if reuse {
		b = transport.Receiver(&p.Kernel, &p.receivers, fb.ID, p.newReceiver)
	}
	if (b == a) != reuse {
		t.Fatalf("reuse %v, but B's record is A's: %v", reuse, b == a)
	}
	s.Net.Run(p.Now() + p.Cfg.RTT/2)
	return staleRecovery{b.rcvd.Count(), b.reissued.Count(), b.inRecovery.Count(), p.RecoveryGrants, s.Net.Engine.Executed}
}

// TestStaleRecoveryRequest: a recovery request queued for a record that
// ended is skipped on its incarnation, also when another flow has the
// record by the time the pacer reaches it: B ends up exactly as it does
// with a fresh record, with no recovery grant sent on its behalf.
func TestStaleRecoveryRequest(t *testing.T) {
	fresh, reused := runStaleRecovery(t, false), runStaleRecovery(t, true)
	if reused != fresh {
		t.Errorf("B with A's record: %+v; with a fresh one: %+v", reused, fresh)
	}
	if fresh.recoveryGrants != 1 || fresh.reissued != 0 {
		t.Errorf("fresh record: %+v; want only A's one recovery grant", fresh)
	}
}
